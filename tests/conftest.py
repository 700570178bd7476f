import os
import sys

# One BLAS thread: default threading oversubscribes small machines, and
# this must run before the first test module imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    results = getattr(module, "RESULTS", None) if module else None
    if not results:
        return
    terminalreporter.section("acceptance summary")
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line("%s: %s  [%s]" % (name, status, detail))
