#!/usr/bin/env bash
# One-shot replication: install, test (every paper claim is a tier-1
# test), and regenerate every experiment table.  Outputs land in
# test_output.txt and reports/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== install =="
pip install -e . 2>/dev/null || python setup.py develop

echo "== tests =="
pytest tests/ 2>&1 | tee test_output.txt

echo "== experiment report =="
python -c "from repro.experiments import save_report; print('\n'.join(save_report('reports')))"
python -m repro.experiments.runner > reports/full_report.txt
echo "tables written to reports/"
