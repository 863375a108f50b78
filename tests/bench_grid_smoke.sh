#!/bin/sh
# bench_grid end to end at toy size, in its four modes (point, sharded
# scan, fixed-rate, zipf): each run must exit 0 and write cell rows, and
# every latency CSV row must read count > 0 and p50 <= p99 <= p999 <=
# max. Then the flag contract: an unknown flag, a malformed value and
# an id the catalog does not know (--ids or --variants) exit 2 without
# running a cell, --help exits 0 within 1 s.
#
#   bench_grid_smoke.sh PATH/TO/bench_grid [ON|OFF]
#
# The second argument is PRAGMALIST_LATENCY: with the latency layer
# compiled out there is no latency CSV to check.
set -u
bin=$1
latency=${2:-ON}
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1

fail() {
  echo "FAIL: $*"
  exit 1
}

run() {
  name=$1
  shift
  rm -f bench_grid.csv bench_grid_latency.csv
  "$bin" --threads 2 --c 300 --u 256 --f 128 --no-pin "$@" > out.txt 2>&1
  status=$?
  cat out.txt
  [ "$status" -eq 0 ] || fail "$name: exit $status"
  awk -F, 'NR > 1 { n++ } END { exit n == 0 }' bench_grid.csv ||
    fail "$name: no cell rows in bench_grid.csv"
  [ "$latency" = OFF ] && return
  awk -F, 'NR > 1 {
    if ($3 + 0 <= 0 || $4 + 0 > $6 + 0 || $6 + 0 > $7 + 0 || $7 + 0 > $8 + 0) {
      print "bad row: " $0; bad = 1
    }
    n++
  } END { exit n == 0 || bad }' bench_grid_latency.csv ||
    fail "$name: latency CSV rows missing or not monotone"
  echo "ok: $name"
}

run point --variants b,f --reclaim arena,ebr --twins heap,nohint
run scan --variants b --shards 1,4 --scan-frac 2,40
run rate --variants b --reclaim ebr --shards 1,4 --rate 20000 --scan-frac 10
run zipf --variants d --shards 1,4 --mix table --dist zipf

expect_exit() {
  want=$1
  shift
  rm -f bench_grid.csv bench_grid_latency.csv
  timeout 1 "$bin" "$@" > out.txt 2> err.txt
  status=$?
  [ "$status" -eq "$want" ] || fail "'$*' exited $status, expected $want"
  if [ "$want" -eq 2 ]; then
    grep -q "usage:" err.txt || fail "'$*' printed no usage"
    [ ! -s out.txt ] && [ ! -e bench_grid.csv ] ||
      fail "'$*' ran cells before rejecting its flags"
  fi
  echo "ok: '$*' exits $want"
}

expect_exit 2 --no-such-flag
expect_exit 2 --c abc
expect_exit 2 --threads 2 --c
expect_exit 2 --ids skiplist
expect_exit 2 --variants zz
expect_exit 0 --help
grep -q "usage: bench_grid" out.txt || fail "--help printed no usage"
