#!/usr/bin/env bash
# Run one seeded collect -> train (mcd, vi, hmc) -> eval-safety -> drive
# chain on both scenarios with the sources of the checkout SRC, writing every
# artifact under OUT, and print "sha256  path" for each file, paths relative
# to OUT. Each scenario is also collected at frame strides 1 and 3, its
# MC-dropout network also trained at batch sizes 7 (a short last minibatch)
# and 1000 (one minibatch per epoch), and its HMC chain also started from the
# VI mean (--vi-model), and its MC-dropout model also certified in all four
# weathers (--weathers all, which the report echoes), for the digests only,
# so that more of collect's kept-frame patterns, of training's minibatch
# shapes, of the VI fit and of the weather presets are compared.
# Run it on two checkouts (a parent commit and a change) and diff the two
# outputs: a change that keeps seeded artifacts byte-identical prints the
# same lines. Digests depend on the NumPy and BLAS build, so compare only
# runs made on one machine. The script exits 1, after printing the digests,
# when any run failed, since a chain of failed runs digests the same on any
# two checkouts.
#
# usage: scripts/seeded_artifacts.sh SRC OUT
set -uo pipefail
if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 2
fi
src=$(cd "$1" && pwd) || exit 2
mkdir -p "$2" && out=$(cd "$2" && pwd) || exit 2

failed=0
run() {
    PYTHONPATH="$src/src" OPENBLAS_NUM_THREADS=1 "${PYTHON:-python3}" -m safesteer "$@" \
        > /dev/null || { echo "exit $?: safesteer $*" >&2; failed=1; }
}

for scenario in straight_obstacle roundabout_first_exit; do
    d="$out/$scenario"
    mkdir -p "$d"
    run collect --scenario "$scenario" --episodes 2 --frame-stride 4 --seed 11 --out "$d/data"
    for stride in 1 3; do
        run collect --scenario "$scenario" --episodes 2 --frame-stride "$stride" --seed 11 \
            --out "$d/data-stride$stride"
    done
    run train --method mcd --dataset "$d/data" --epochs 2 --seed 1 \
        --out "$d/mcd.json"
    for batch in 7 1000; do
        run train --method mcd --dataset "$d/data" --epochs 2 --batch-size "$batch" --seed 1 \
            --out "$d/mcd-batch$batch.json"
    done
    run train --method vi --dataset "$d/data" --mcd-model "$d/mcd.json" \
        --vi-iterations 40 --seed 2 --out "$d/vi.json"
    run train --method hmc --dataset "$d/data" --mcd-model "$d/mcd.json" \
        --hmc-burn-in 5 --hmc-samples 8 --hmc-thin 1 --hmc-step-size 0.002 --seed 3 \
        --out "$d/hmc.json"
    run train --method hmc --dataset "$d/data" --mcd-model "$d/mcd.json" --vi-model "$d/vi.json" \
        --hmc-burn-in 5 --hmc-samples 8 --hmc-thin 1 --hmc-step-size 0.002 --seed 3 \
        --out "$d/hmc-from-vi.json"
    for m in mcd vi hmc; do
        run eval-safety --scenario "$scenario" --model "$d/$m.json" --theta 0.25 --gamma 0.2 \
            --weathers clear,rain --with-monitor --jobs 2 --log-episodes 3 --seed 5 \
            --report "$d/$m-report.json" --log "$d/$m-log.csv"
        run drive --scenario "$scenario" --model "$d/$m.json" --weather rain --monitor --seed 7 \
            --out "$d/$m-drive-rain-monitored.csv"
        run drive --scenario "$scenario" --model "$d/$m.json" --weather clear --seed 7 \
            --out "$d/$m-drive-clear.csv"
    done
    run eval-safety --scenario "$scenario" --model "$d/mcd.json" --theta 0.4 --gamma 0.4 \
        --weathers all --with-monitor --seed 5 \
        --report "$d/mcd-all-weathers-report.json" --log "$d/mcd-all-weathers-log.csv"
done

cd "$out" && find . -type f | LC_ALL=C sort | xargs sha256sum
if [ "$failed" -ne 0 ]; then
    echo "some runs failed; see the exit lines above" >&2
    exit 1
fi
