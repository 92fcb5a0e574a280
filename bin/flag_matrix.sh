#!/bin/sh
# Flag matrix of the OP2 and OPS drivers.
#
#   flag_matrix.sh AIRFOIL_EXE AERO_EXE HYDRA_EXE CLOVERLEAF_EXE \
#     CLOVERLEAF3_EXE TEALEAF_EXE
#
# Runs each driver at a small size on each of its documented backends, and
# on an unknown one.  The OP2 drivers run with no flag, with each of
# --renumber, --verify and --check that the driver defines (hydra has no
# --verify), and with --renumber --verify together; the OPS drivers with
# no flag and --check, and cloverleaf also with --verify and --van-leer
# --verify, so the hand-coded cross-check covers van Leer's computed
# stencil points on every backend.  A run on the unknown backend, on mpi
# with --ranks 0 or at size 0 (every driver), on a decomposition the OPS
# runtime refuses (more ranks than rows or planes, a rank thinner than the
# ghost depth), on a Hydra mesh of odd size, with cloverleaf's
# --summary-every 0, with a negative --iters or --steps (every driver; 0
# is valid and runs nothing), with an output file in a directory that does
# not exist (--trace on every driver, airfoil's --obs-json, --save and
# --mesh), with a --faults specification that does not parse (every
# driver: a drop probability of 2), with an airfoil --mesh file that does
# not load (not a snapshot, or a snapshot without mesh fields such as a
# --save file) or with a tealeaf --dt that is not a finite number above 0
# (-1, 0, nan, inf) is a usage error and must exit 2; every other run,
# --trace and --obs-json into the working directory included, must exit
# 0.  No output may report an uncaught exception, and cloverleaf3's pencil
# backend must print the rank grid it runs on (the most square split of
# --ranks: 3 ranks are 1x3).  Prints only the runs that fail.
set -u
# A bare file name is a path in the current directory, not a command.
path() { case $1 in */*) echo "$1" ;; *) echo "./$1" ;; esac; }
airfoil=$(path "$1")
aero=$(path "$2")
hydra=$(path "$3")
cloverleaf=$(path "$4")
cloverleaf3=$(path "$5")
tealeaf=$(path "$6")
failed=0

# run_prints TEXT COMMAND...: as run 0, and the output must contain TEXT.
run_prints() {
  text=$1
  shift
  run 0 "$@"
  case $out in
  *"$text"*) ;;
  *)
    echo "flag matrix: output lacks \"$text\": $*"
    failed=1
    ;;
  esac
}

# The exit code of a run on backend $1.
expected() {
  case $1 in
  bogus) echo 2 ;;
  *) echo 0 ;;
  esac
}

# run WANT COMMAND...
run() {
  want=$1
  shift
  out=$("$@" 2>&1)
  code=$?
  if [ "$code" != "$want" ]; then
    echo "flag matrix: exit $code, expected $want: $*"
    echo "$out" | tail -3
    failed=1
  fi
  case $out in
  *"uncaught exception"* | *"Fatal error: exception"*)
    echo "flag matrix: uncaught exception: $*"
    echo "$out" | tail -3
    failed=1
    ;;
  esac
}

for backend in seq vec shared cuda mpi hybrid bogus; do
  for flags in "" --renumber --verify --check "--renumber --verify"; do
    run "$(expected $backend)" "$airfoil" --nx 16 --ny 12 --iters 2 --ranks 3 \
      --backend "$backend" $flags
  done
  for flags in "" --renumber --verify --check "--renumber --verify"; do
    run "$(expected $backend)" "$aero" --size 8 --iters 1 --ranks 3 \
      --backend "$backend" $flags
  done
  for flags in "" --renumber --check; do
    run "$(expected $backend)" "$hydra" --nx 8 --ny 6 --iters 1 --ranks 3 \
      --backend "$backend" $flags
  done
done
for backend in seq shared cuda mpi mpi2d hybrid bogus; do
  for flags in "" --check --verify "--van-leer --verify"; do
    run "$(expected $backend)" "$cloverleaf" --nx 12 --ny 12 --steps 2 \
      --ranks 3 --backend "$backend" $flags
  done
done
for backend in seq shared cuda mpi pencil hybrid bogus; do
  for flags in "" --check; do
    run "$(expected $backend)" "$cloverleaf3" --size 6 --steps 1 --ranks 3 \
      --backend "$backend" $flags
  done
done
for backend in seq shared cuda mpi hybrid bogus; do
  for flags in "" --check; do
    run "$(expected $backend)" "$tealeaf" --size 6 --steps 1 --ranks 3 \
      --backend "$backend" $flags
  done
done
run_prints "pencil decomposition: 1x3" "$cloverleaf3" --size 6 --steps 1 --ranks 3 \
  --backend pencil
run 2 "$airfoil" --nx 16 --ny 12 --iters 2 --ranks 0 --backend mpi
run 2 "$aero" --size 8 --iters 1 --ranks 0 --backend mpi
run 2 "$hydra" --nx 8 --ny 6 --iters 1 --ranks 0 --backend mpi
run 2 "$cloverleaf" --nx 12 --ny 12 --steps 2 --ranks 0 --backend mpi
run 2 "$cloverleaf3" --size 6 --steps 1 --ranks 0 --backend mpi
run 2 "$tealeaf" --size 6 --steps 1 --ranks 0 --backend mpi
run 2 "$airfoil" --nx 0 --ny 12 --iters 2
run 2 "$aero" --size 0 --iters 1
run 2 "$hydra" --nx 0 --ny 6 --iters 1
run 2 "$cloverleaf" --nx 0 --ny 12 --steps 2
run 2 "$cloverleaf3" --size 0 --steps 1
run 2 "$tealeaf" --size 0 --steps 1
run 2 "$cloverleaf" --nx 8 --ny 2 --steps 1 --ranks 8 --backend mpi
run 2 "$cloverleaf" --nx 8 --ny 8 --steps 1 --ranks 64 --backend mpi2d
run 2 "$cloverleaf3" --size 2 --steps 1 --ranks 4 --backend mpi
run 2 "$cloverleaf3" --size 3 --steps 1 --ranks 4 --backend pencil
run 2 "$tealeaf" --size 4 --steps 1 --ranks 3 --backend mpi
run 2 "$hydra" --nx 7 --ny 6 --iters 1
run 2 "$cloverleaf" --nx 12 --ny 12 --steps 2 --summary-every 0
run 2 "$airfoil" --nx 16 --ny 12 --iters=-1
run 2 "$aero" --size 8 --iters=-1
run 2 "$hydra" --nx 8 --ny 6 --iters=-1
run 2 "$cloverleaf" --nx 12 --ny 12 --steps=-2
run 2 "$cloverleaf3" --size 6 --steps=-1
run 2 "$tealeaf" --size 6 --steps=-1
missing=no-such-directory/out
run 2 "$airfoil" --nx 16 --ny 12 --iters 2 --trace "$missing"
run 2 "$aero" --size 8 --iters 1 --trace "$missing"
run 2 "$hydra" --nx 8 --ny 6 --iters 1 --trace "$missing"
run 2 "$cloverleaf" --nx 12 --ny 12 --steps 2 --trace "$missing"
run 2 "$cloverleaf3" --size 6 --steps 1 --trace "$missing"
run 2 "$tealeaf" --size 6 --steps 1 --trace "$missing"
run 2 "$airfoil" --nx 16 --ny 12 --iters 2 --obs-json "$missing"
run 2 "$airfoil" --nx 16 --ny 12 --iters 2 --save "$missing"
run 2 "$airfoil" --nx 16 --ny 12 --iters 2 --mesh "$missing"
for dt in -1 0 nan inf; do
  run 2 "$tealeaf" --size 6 --steps 1 --dt="$dt"
done
run 2 "$airfoil" --nx 16 --ny 12 --iters 2 --faults drop=2
run 2 "$aero" --size 8 --iters 1 --faults drop=2
run 2 "$hydra" --nx 8 --ny 6 --iters 1 --faults drop=2
run 2 "$cloverleaf" --nx 12 --ny 12 --steps 2 --faults drop=2
run 2 "$cloverleaf3" --size 6 --steps 1 --faults drop=2
run 2 "$tealeaf" --size 6 --steps 1 --faults drop=2
# Output files named without a directory land in the working directory.
trace=flag_matrix_trace.json
counters=flag_matrix_counters.json
run 0 "$airfoil" --nx 16 --ny 12 --iters 2 --trace "$trace" --obs-json "$counters"
run 0 "$aero" --size 8 --iters 1 --trace "$trace" --obs-json "$counters"
run 0 "$hydra" --nx 8 --ny 6 --iters 1 --trace "$trace" --obs-json "$counters"
run 0 "$cloverleaf" --nx 12 --ny 12 --steps 2 --trace "$trace" --obs-json "$counters"
run 0 "$cloverleaf3" --size 6 --steps 1 --trace "$trace" --obs-json "$counters"
run 0 "$tealeaf" --size 6 --steps 1 --trace "$trace" --obs-json "$counters"
rm -f "$trace" "$counters"
# Mesh files that do not load: not a snapshot, and a snapshot without the
# mesh fields (a --save file).
tmp=$(mktemp -d)
echo "not a snapshot" >"$tmp/text.snap"
run 2 "$airfoil" --nx 16 --ny 12 --iters 2 --mesh "$tmp/text.snap"
run 0 "$airfoil" --nx 16 --ny 12 --iters 2 --save "$tmp/solution.snap"
run 2 "$airfoil" --nx 16 --ny 12 --iters 2 --mesh "$tmp/solution.snap"
rm -rf "$tmp"
exit $failed
