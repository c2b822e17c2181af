#!/usr/bin/env bash
# End-to-end command-line walk-through
# ====================================
#
# Every stage of the workflow is also available as a subcommand of the
# installed `transdim` script, talking through plain files: samples and
# signals as line-oriented text, models and reports as JSON.  This script
# runs the whole chain at demo scale inside a scratch directory.

set -euo pipefail
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
echo "working in $work"

# 1. Synthesize the demo sinusoid signal (three tones, the middle one weak)
#    and run a short trans-dimensional chain over (k, frequencies).
transdim simulate-sin --seed 4 \
    --iterations 20000 --burn-in 4000 --thinning 2 \
    --out sin_samples.txt --signal-out sin_signal.json
head -3 sin_samples.txt
echo "..."

# 2. Collapse the sample cloud into a gated-component summary.  The fitted
#    model and the criterion trace go to files.
transdim fit --samples sin_samples.txt --iterations 60 --window 30 \
    --inner-steps 6 --seed 2 \
    --out sin_model.json --trace-out sin_trace.csv
python3 - <<'EOF'
import json
m = json.load(open("sin_model.json"))
print("fitted components (mu, pi):",
      [(round(c["mu"][0], 3), round(c["pi"], 2)) for c in m["components"]])
EOF

# 3. Turn model + samples into a report: p(k) both ways, expected counts in
#    chosen windows, histogram-vs-intensity table, and a reconstruction
#    scored against the stored noise-free truth.
transdim report --model sin_model.json --samples sin_samples.txt \
    --signal sin_signal.json \
    --interval 0.55:0.80 --draws 2000 --seed 6 --outdir report
python3 - <<'EOF'
import json
r = json.load(open("report/report.json"))
print(f"reconstruction error: {r['reconstruction_db']:.2f} dB")
print("window counts:", r["intervals"])
EOF

# 4. The photoelectron pipeline uses the same verbs with 2-d samples.
#    The prior is given explicitly (rate 1, Gamma(2, 0.05) amplitudes);
#    AugerChainConfig's defaults are rate 3 and Gamma(1, 0.1).
transdim simulate-auger --seed 9 --muon 105:50 --muon 170:45 \
    --rate 1 --amp-alpha 2 --amp-beta 0.05 \
    --iterations 15000 --burn-in 3000 --thinning 5 \
    --out pe_samples.txt --signal-out pe_signal.csv
transdim fit --samples pe_samples.txt --init-rule fixed --fixed-l 4 \
    --iterations 40 --window 20 --seed 0 --out pe_model.json

# 5. A tiny replicated study: model-based answers vs chain-based answers
#    across independent synthetic datasets, one CSV row per replicate.
cat > mc_config.json <<'EOF'
{
  "replicates": 2,
  "chain": {"iterations": 2500, "burn_in": 500, "thinning": 2, "rw_step": 0.05},
  "fit": {"iterations": 20, "averaging_window": 10},
  "reconstruction_draws": 400
}
EOF
transdim montecarlo --seed 123 --config mc_config.json --out mc_table.csv
python3 - <<'EOF'
import csv
with open("mc_table.csv") as fh:
    for row in csv.DictReader(fh):
        print(f"  replicate {row['replicate']}: status={row['status']}"
              f" recon gap={float(row['recon_model_db']) - float(row['recon_bma_db']):+.2f} dB")
EOF

# 6. Self-checks: closed-form pieces recomputed by brute force.
transdim oracle

echo
echo "pipeline complete"
