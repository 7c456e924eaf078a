# Convenience targets for the reproduction.

PYTHON ?= python

# Every target imports the package from src/, installed or not.
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: help install test docs-test lint lint-deep faults-smoke solvers-smoke report save-report examples all clean

# The default goal: lists the targets and installs nothing, so a bare
# `make` is safe offline.
help:
	@echo "make install        editable install of the package and its deps"
	@echo "make test           pytest tests/"
	@echo "make docs-test      run every python block in README.md and docs/"
	@echo "make lint           repro lint src tests scripts (RPL001-RPL007)"
	@echo "make lint-deep      lint plus the deep pass (RPL008-RPL009)"
	@echo "make faults-smoke   tiny fault-matrix scenario"
	@echo "make solvers-smoke  solver registry contract checks"
	@echo "make report         regenerate every experiment table"
	@echo "make save-report    write the tables and lint.json to reports/"
	@echo "make examples       run every script in examples/"
	@echo "make all            lint, test and report"
	@echo "make clean          remove caches and reports/"

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

# Every ```python block in README.md and docs/*.md must execute green,
# and the modules the docs reference must pass the lint rules.
docs-test:
	$(PYTHON) -m pytest tests/test_docs.py tests/test_readme.py -q
	$(PYTHON) -m repro.lint src

lint:
	$(PYTHON) -m repro.lint src tests scripts

# Adds the whole-program dataflow pass (RPL008 exactness taint, RPL009
# seed flow) on top of the per-file rules.
lint-deep:
	$(PYTHON) -m repro.lint --deep src tests scripts

# Tiny fault-matrix scenario: zero-fault bypass, reproducibility under
# faults, and the delay-budget cap (docs/robustness.md); CI runs this.
faults-smoke:
	$(PYTHON) scripts/faults_smoke.py

# Registry contract: `repro solvers --json` schema, the no-required-option
# solver sweep, and the §4.3 gadget pins (docs/architecture.md); CI runs this.
solvers-smoke:
	$(PYTHON) scripts/solvers_smoke.py

report:
	$(PYTHON) -m repro.experiments.runner

save-report:
	$(PYTHON) -c "from repro.experiments import save_report; print('\n'.join(save_report('reports')))"

# Runs every example; stops at (and exits with) the first one that fails.
examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
		echo; \
	done

all: lint test report

clean:
	rm -rf .pytest_cache .hypothesis reports src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
