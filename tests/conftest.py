"""Prints a one-line verdict per acceptance criterion after the test run."""

CRITERIA = {
    1: "zero-one transport primal equals brute-force deficiency on 500 random instances",
    2: "identity correspondence reduces the transport value to total variation",
    3: "line-network verdict flips exactly when p011+p110 crosses the region mass",
    4: "entry-game compatibility equals the 16 subset inequalities",
    5: "dual statistic matches the primal LP and a dual-LP oracle within 1e-8 on 50 random instances",
    6: "pilot dual statistic recovers the analytic compatibility region",
    7: "truncated-grid family attains values 1/M, strictly decreasing, never 0",
    8: "search-model deficiency maximum is attained on an interval class",
    9: "selection minimax equality holds on unit-chunk instances",
    10: "bootstrap size <= 10% at nominal 5% and power >= 95% (n=500, B=200)",
    11: "every CLI command is byte-identical under identical inputs and seeds",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for key in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid and getattr(rep, "when", "call") == "call":
                num = int(nodeid.split("::")[-1].split("_")[2])
                outcomes[num] = key
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(outcomes):
        status = "PASS" if outcomes[num] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {status} - {CRITERIA[num]}")
