"""``repro.lint`` — AST contract checkers for this repository's invariants.

Nine PRs of growth accreted correctness contracts that nothing enforced
mechanically: the chaos harness only proves convergence for code that
routes clocks through injectable seams, and the fleet/serve layers rely
on atomic writes, sorted directory listings and lock-guarded module
state.  This package turns those conventions into CI-enforced
rules — stdlib :mod:`ast` only, no new dependencies.

Rules (see docs/lint.md for the full rationale of each):

========================  ==================================================
``clock-seam``            no bare ``time.time()``/``time.monotonic()`` calls
                          in fleet/serve/chaos modules outside declared seams
``atomic-write``          store/lease/bench writes use tmp+fsync+os.replace
                          or single-``os.write`` O_APPEND
``sorted-iteration``      ``glob()``/``listdir()`` results are sorted (or
                          only counted) where they are produced
``lock-discipline``       module-level mutable state in lock-declaring
                          modules mutates only under ``with <lock>:``
``private-access``        no cross-module ``_underscore`` imports or
                          attribute access
========================  ==================================================

Entry points: ``repro lint`` (CLI) or :func:`run_lint` (programmatic).
"""

from repro.lint.core import (
    DEFAULT_CONFIG,
    Finding,
    LintConfig,
    all_rules,
    apply_baseline,
    iter_python_files,
    load_baseline,
    render_json,
    render_text,
    run_lint,
    write_baseline,
)

__all__ = [
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
    "all_rules",
    "apply_baseline",
    "iter_python_files",
    "load_baseline",
    "render_json",
    "render_text",
    "run_lint",
    "write_baseline",
]
