#!/usr/bin/env bash
# Process-level drills for cloudlessctl's local mode — what an in-process test
# cannot do: separate processes per command, and a kill -9 or an interrupt in
# the middle of an apply. Each drill runs the quickstart program against its own cloudsim and
# exits non-zero on the first output that does not match.
# It builds cloudlessctl and cloudsim first:
#
#   cmd/cloudlessctl/drill.sh
set -euo pipefail

repo=$(cd "$(dirname "$0")/../.." && pwd)
work=$(mktemp -d)
sims=()
cleanup() {
  for pid in "${sims[@]}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

bin=$work/bin
(cd "$repo" && go build -o "$bin/cloudlessctl" ./cmd/cloudlessctl && go build -o "$bin/cloudsim" ./cmd/cloudsim)
ctl() { "$bin/cloudlessctl" "$@"; }

# sim <port> [flags]: start a fresh cloudsim and wait until it answers.
sim() {
  local port=$1
  shift
  "$bin/cloudsim" -addr "127.0.0.1:$port" "$@" >"$work/sim-$port.log" 2>&1 &
  sims+=($!)
  for _ in $(seq 1 100); do
    curl -sf "http://127.0.0.1:$port/v1/resources/aws_vpc" >/dev/null && return
    sleep 0.05
  done
  echo "drill: cloudsim on :$port never answered" >&2
  exit 1
}

# project <name>: a copy of examples/quickstart in $work/<name>.
project() {
  mkdir -p "$work/$1"
  cp "$repo/examples/quickstart/main.ccl" "$work/$1/"
}

# expect <what> <regexp> <output>: some line of output matches regexp.
expect() {
  if ! grep -qE -- "$2" <<<"$3"; then
    printf 'drill: %s: want a line matching /%s/ in:\n%s\n' "$1" "$2" "$3" >&2
    exit 1
  fi
  echo "ok  $1"
}

# count <port> <type>: how many resources of type the cloud holds.
count() {
  curl -sf "http://127.0.0.1:$1/v1/resources/$2" |
    python3 -c 'import json, sys; print(len(json.load(sys.stdin)["resources"]))'
}

# 1. A rollback is a commit to the golden state: history lists the serials
#    plan prints, and after rolling back to the first apply a scan finds no
#    drift.
sim 18461
project one
F=(-dir "$work/one" -data-dir "$work/one.data" -cloud http://127.0.0.1:18461)
ctl apply "${F[@]}" >/dev/null
cat >>"$work/one/main.ccl" <<'EOF'

resource "aws_network_interface" "n2" {
  name      = "nic-2"
  subnet_id = aws_subnet.main.id
}

resource "aws_virtual_machine" "vm2" {
  name    = "vm-2"
  nic_ids = [aws_network_interface.n2.id]
}
EOF
ctl apply "${F[@]}" >/dev/null
out=$(ctl history "${F[@]}")
expect "history lists the first apply" '^ +2 +apply +4 resource\(s\)$' "$out"
expect "history lists the second apply" '^ +3 +apply +6 resource\(s\)$' "$out"
out=$(ctl rollback "${F[@]}" -to 2)
expect "rollback commits" '^rolled back: .* serial 4$' "$out"
out=$(ctl drift "${F[@]}" -scan)
expect "no drift after the rollback" '^no drift \(full-scan' "$out"

# 2. A recovery is a commit to the golden state: after a kill -9 mid-apply,
#    recover re-drives the op in doubt and the plan adds only the VM the
#    killed run never started.
sim 18462 -time-scale 0.02
project two
F=(-dir "$work/two" -data-dir "$work/two.data" -cloud http://127.0.0.1:18462)
"$bin/cloudlessctl" apply "${F[@]}" >/dev/null 2>&1 &
killed=$!
sleep 0.6
kill -9 "$killed"
wait "$killed" 2>/dev/null || true
out=$(ctl recover "${F[@]}")
expect "recover re-drives the op in doubt" '2 confirmed, 1 resumed' "$out"
out=$(ctl plan "${F[@]}")
expect "plan after recover" '^plan: 1 to add, .*\(3 unchanged\)' "$out"

# 3. A plan that recovers a killed run commits the recovery: the next plan
#    reads the same, and finishing the run creates no second subnet.
sim 18463 -time-scale 0.02
project three
F=(-dir "$work/three" -data-dir "$work/three.data" -cloud http://127.0.0.1:18463)
"$bin/cloudlessctl" apply "${F[@]}" >/dev/null 2>&1 &
killed=$!
sleep 0.6
kill -9 "$killed"
wait "$killed" 2>/dev/null || true
out=$(ctl plan "${F[@]}")
expect "the recovering plan" '^plan: 1 to add, .*\(3 unchanged\)' "$out"
out=$(ctl plan "${F[@]}")
expect "the plan after it" '^plan: 1 to add, .*\(3 unchanged\)' "$out"
out=$(ctl apply "${F[@]}")
expect "apply finishes the run" '^applied 1 change\(s\)' "$out"
expect "exactly one subnet" '^1$' "$(count 18463 aws_subnet)"

# 4. A second command on a data dir in use is refused, and an interrupt
#    cancels the running job: in-flight operations drain, what finished
#    commits, and the next plan adds only what the run never did.
sim 18464 -time-scale 0.02
project four
F=(-dir "$work/four" -data-dir "$work/four.data" -cloud http://127.0.0.1:18464)
"$bin/cloudlessctl" apply "${F[@]}" >"$work/four.out" 2>&1 &
interrupted=$!
sleep 0.5
out=$(ctl plan "${F[@]}" 2>&1 || true)
expect "a second command is refused" 'in use by another cloudlessctl' "$out"
sleep 0.1
kill -INT "$interrupted"
if wait "$interrupted"; then
  echo "drill: an interrupted apply exited 0" >&2
  exit 1
fi
out=$(cat "$work/four.out")
expect "the interrupt drains" '^cloudlessctl: interrupt — draining' "$out"
expect "the job ends canceled" '^cloudlessctl: apply job .* canceled' "$out"
out=$(ctl plan "${F[@]}")
expect "plan after the interrupt" '^plan: 1 to add, .*\(3 unchanged\)' "$out"

# 5. Recovering one project leaves another alone: project B is converged on
#    the same cloud under the same principal, project A (the same program
#    under other names) is killed mid-apply and recovered, and B's plan
#    still says no changes. Finishing A leaves both projects whole.
sim 18465 -time-scale 0.02
project five-b
project five-a
sed -i 's/"quickstart"/"quickstart-a"/; s/"example-nic"/"nic-a"/; s/"cloudless"/"vm-a"/' "$work/five-a/main.ccl"
B=(-dir "$work/five-b" -data-dir "$work/five-b.data" -cloud http://127.0.0.1:18465)
A=(-dir "$work/five-a" -data-dir "$work/five-a.data" -cloud http://127.0.0.1:18465)
ctl apply "${B[@]}" >/dev/null
"$bin/cloudlessctl" apply "${A[@]}" >/dev/null 2>&1 &
killed=$!
sleep 0.6
kill -9 "$killed"
wait "$killed" 2>/dev/null || true
out=$(ctl recover "${A[@]}")
expect "recover project A" '^recovered apply journal: ' "$out"
out=$(ctl plan "${B[@]}")
expect "project B is untouched" '^plan: 0 to add, 0 to change, 0 to replace, 0 to destroy \(4 unchanged\)' "$out"
ctl apply "${A[@]}" >/dev/null
for typ in aws_vpc aws_subnet aws_network_interface aws_virtual_machine; do
  expect "one $typ per project" '^2$' "$(count 18465 "$typ")"
done
