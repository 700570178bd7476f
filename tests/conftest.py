import ctypes
import glob
import os
import sys
import tempfile

# One BLAS thread: default threading oversubscribes small machines, and
# this must run before the first test module imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
# Hypothesis caches what it collects in ./.hypothesis unless told
# otherwise, and it collects while pytest gathers the tests.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "slrnmf-hypothesis"))


def blas_line():
    """The kernel set and thread count of numpy's bundled OpenBLAS, which
    it picks at run time; results differ bitwise across both."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                           "numpy.libs", "libscipy_openblas*")
    try:
        lib = ctypes.CDLL(sorted(glob.glob(pattern))[0])
        corename = lib.scipy_openblas_get_corename64_
        threads = lib.scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return "BLAS: not numpy's bundled OpenBLAS; kernel set and threads unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    threads.argtypes, threads.restype = [], ctypes.c_int
    return "BLAS: OpenBLAS %s kernels, %d thread(s)" % (
        corename().decode(), threads())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    results = getattr(module, "RESULTS", None) if module else None
    if not results:
        return
    terminalreporter.section("acceptance summary")
    terminalreporter.write_line(blas_line())
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line("%s: %s  [%s]" % (name, status, detail))
