"""Synthetic linear-mixture instances with known ground truth.

Builds observation matrices Y = Phi_true W_true^T + E from sparse random
abundances and endmember spectra drawn either from the packaged spectral
library or generated as smooth random curves.  Every generator is
deterministic given its seed, so experiment runs can be reproduced
byte-for-byte.
"""

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .io import load_matrix
from .model import as_integer, as_matrix, check_nonneg

__all__ = [
    "GroundTruth",
    "gen_abundances",
    "gen_endmembers",
    "mix_and_noise",
    "simulate",
    "default_library_path",
]

_SOURCES = ("library-file", "synthetic-smooth")


@dataclass(frozen=True)
class GroundTruth:
    """True factors behind a synthetic observation matrix.

    ``phi_true`` is L-by-N (bands by endmembers), ``w_true`` K-by-N
    (pixels by endmembers), ``sigma`` the additive noise standard
    deviation and ``seed`` the noise stream seed used by
    :func:`mix_and_noise`.
    """

    phi_true: np.ndarray
    w_true: np.ndarray
    sigma: float
    seed: int

    def __post_init__(self):
        phi = as_matrix(self.phi_true, "phi_true")
        w = as_matrix(self.w_true, "w_true")
        check_nonneg(phi, "phi_true")
        check_nonneg(w, "w_true")
        if phi.shape[1] != w.shape[1]:
            raise ValueError(
                "phi_true has %d columns but w_true has %d"
                % (phi.shape[1], w.shape[1]))
        if phi.shape[1] < 1:
            raise ValueError("ground truth needs at least one endmember")
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0, got %g" % self.sigma)
        object.__setattr__(self, "phi_true", phi)
        object.__setattr__(self, "w_true", w)

    @property
    def n(self):
        return self.phi_true.shape[1]


def default_library_path():
    """Path of the packaged spectral library CSV (224 bands, 12 spectra)."""
    return resources.files("slrnmf").joinpath("data/spectral_library.csv")


def gen_abundances(k, n, density, seed):
    """K-by-N abundance matrix: uniform entries with an exact sparsity count.

    Entries are drawn i.i.d. uniform on [0, 1]; then exactly
    round(density * K * N) of them, chosen uniformly without
    replacement, are kept and the rest are zeroed.  ``density = 1``
    keeps everything.

    Parameters
    ----------
    k, n : int
        Pixel and endmember counts, both >= 1.
    density : float
        Fraction of entries kept, in (0, 1].
    seed : int
        RNG seed.

    Returns
    -------
    (K, N) float array
    """
    k = as_integer(k, "k", 1)
    n = as_integer(n, "n", 1)
    density = float(density)
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1], got %g" % density)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, size=(k, n))
    total = k * n
    keep = int(round(density * total))
    if keep < total:
        kept = rng.choice(total, size=keep, replace=False)
        mask = np.zeros(total, dtype=bool)
        mask[kept] = True
        w[~mask.reshape(k, n)] = 0.0
    return w


def _smooth_spectra(l, n, rng):
    # Sums of at most 5 Gaussian bumps over the band axis, plus a small
    # positive baseline; nonnegative and much smoother than white noise.
    bands = np.arange(l, dtype=np.float64)
    phi = np.empty((l, n), dtype=np.float64)
    for j in range(n):
        nbumps = int(rng.integers(1, 6))
        centers = rng.uniform(0.0, max(l - 1, 1), size=nbumps)
        widths = rng.uniform(max(l / 20.0, 1.0), max(l / 5.0, 2.0), size=nbumps)
        amps = rng.uniform(0.2, 1.0, size=nbumps)
        curve = rng.uniform(0.02, 0.1)
        for c, s, a in zip(centers, widths, amps):
            curve = curve + a * np.exp(-0.5 * ((bands - c) / s) ** 2)
        phi[:, j] = curve
    return phi


def gen_endmembers(l, n, source, seed, library_path=None):
    """L-by-N endmember matrix from the library or a smooth synthetic draw.

    ``source = "library-file"`` selects ``n`` distinct spectra (columns,
    without replacement) from a bands-by-spectra CSV; ``library_path``
    defaults to the packaged library.  ``source = "synthetic-smooth"``
    generates nonnegative random smooth curves for self-contained runs.

    Raises
    ------
    ValueError
        Unknown source, library with the wrong band count, or fewer
        library spectra than requested.
    """
    l = as_integer(l, "l", 1)
    n = as_integer(n, "n", 1)
    if source not in _SOURCES:
        raise ValueError("source must be one of %s, got %r" % (_SOURCES, source))
    rng = np.random.default_rng(seed)
    if source == "synthetic-smooth":
        return _smooth_spectra(l, n, rng)
    path = default_library_path() if library_path is None else library_path
    lib = load_matrix(path)
    if lib.shape[0] != l:
        raise ValueError(
            "library %s has %d bands, expected %d" % (path, lib.shape[0], l))
    if lib.shape[1] < n:
        raise ValueError(
            "library %s has only %d spectra, need %d" % (path, lib.shape[1], n))
    cols = rng.choice(lib.shape[1], size=n, replace=False)
    return lib[:, cols].copy()


def mix_and_noise(truth, clamp=True):
    """Observation matrix Y = Phi_true W_true^T + E, E i.i.d. N(0, sigma^2).

    Negative entries produced by the noise are clamped to zero by
    default so Y satisfies the nonnegativity the solver expects; pass
    ``clamp=False`` to keep them.
    """
    product = truth.phi_true @ truth.w_true.T
    if truth.sigma == 0.0:
        return product
    rng = np.random.default_rng(truth.seed)
    y = product + rng.normal(0.0, truth.sigma, size=product.shape)
    if clamp:
        np.maximum(y, 0.0, out=y)
    return y


def simulate(l, k, n, density, sigma, seed, source="library-file",
             library_path=None, clamp=True):
    """Full synthetic instance: returns (y, truth).

    A single user seed is split into independent sub-streams for the
    abundances, the endmember selection and the noise, so changing one
    stage's parameters never perturbs the others.
    """
    sub = np.random.SeedSequence(seed).generate_state(3)
    w = gen_abundances(k, n, density, int(sub[0]))
    phi = gen_endmembers(l, n, source, int(sub[1]), library_path=library_path)
    truth = GroundTruth(phi_true=phi, w_true=w, sigma=float(sigma),
                        seed=int(sub[2]))
    return mix_and_noise(truth, clamp=clamp), truth
