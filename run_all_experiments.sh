#!/bin/bash
# Regenerates every figure/table at paper scale, then runs the
# robustness suites (flight-recorder gate, then the committed campaign
# grids: smoke, chaos and attack).
# Run from the repo root; extra args are forwarded to the figure/table
# experiments (e.g. --quick).
set -e
cd "$(dirname "$0")"
mkdir -p results

echo "=== build ==="
cargo build --workspace --release

# Every figure/table point is a campaign cell under results/paper/ (or
# results/paper-quick/) that `paper` resumes when its spec matches; a
# cell records its spec, not the build, so regenerating starts afresh.
rm -rf results/paper results/paper-quick
for x in fig3 fig4 fig5 fig6 imgsize ablation overhead table2_3; do
  echo "=== $x ==="
  ./target/release/paper $x "$@" | tee results/$x.txt
done

# Flight-recorder gate: the committed watchdog capsule must replay to
# its recorded digest. Its first line records the GF(256) and SHA-256
# kernels this CPU supports and which ones runtime dispatch selected:
# results are bit-identical across kernels, but runtime comparisons
# between recorded runs need to know the ISA they measured on.
echo "=== replay ==="
./target/release/replay results/capsules/chaos-watchdog-demo.jsonl | tee results/replay.txt

# Campaign gate: the committed 24-job checkpointed Monte-Carlo grid,
# including a kill + resume cycle to exercise crash recovery. The final
# report must match the committed golden byte-for-byte.
echo "=== campaign ==="
rm -rf results/campaign-smoke
./target/release/campaign --spec examples/campaign/smoke.toml --kill-after 6 \
  | tee results/campaign.txt
./target/release/campaign --resume results/campaign-smoke | tee -a results/campaign.txt
diff results/campaign-smoke/report.json results/campaign_smoke_golden.json \
  && echo "campaign report matches the committed golden"

# Fault-intensity sweep: crash/reboot x link flap x packet storm on
# both schemes with the invariant checker and stall watchdog armed; any
# stall or invariant violation dumps a replayable capsule under
# results/campaign-chaos/failures.
echo "=== chaos campaign ==="
rm -rf results/campaign-chaos
./target/release/campaign --spec examples/campaign/chaos.toml | tee results/campaign_chaos.txt
diff results/campaign-chaos/report.json results/campaign_chaos_golden.json \
  && echo "chaos campaign report matches the committed golden"

# Adversary-campaign gate: the §IV-E grid, plan-driven attackers
# crossed with crash/reboot faults on LR-Seluge, Seluge and plain
# Deluge; attacked cells report the graceful-degradation axes
# (completion_frac, verify_inflation, energy_j) and the report must
# match its committed golden.
echo "=== attack campaign ==="
rm -rf results/campaign-attack
./target/release/campaign --spec examples/campaign/attack.toml \
  --out results/campaign-attack | tee results/campaign_attack.txt
diff results/campaign-attack/report.json results/campaign_attack_golden.json \
  && echo "attack campaign report matches the committed golden"

# Statistical diff gate: the regenerated smoke report self-diffed
# against the committed golden must show zero significant differences
# (they are byte-identical, so this also smoke-tests campdiff itself),
# and an injected perturbation must be flagged with exit code 2.
echo "=== campdiff ==="
./target/release/campdiff --a results/campaign_smoke_golden.json \
  --b results/campaign-smoke/report.json \
  --out results/campdiff-self.json | tee results/campdiff.txt
set +e
./target/release/campdiff --a results/campaign_smoke_golden.json \
  --b results/campaign-smoke/report.json \
  --inject verify_inflation=1.25 \
  --out results/campdiff-injected.json | tee -a results/campdiff.txt
campdiff_code=$?
set -e
if [ "$campdiff_code" -ne 2 ]; then
  echo "campdiff missed the injected regression (exit $campdiff_code)" >&2
  exit 1
fi
echo "campdiff gates passed: clean self-diff, injected regression flagged"
