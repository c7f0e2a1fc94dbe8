"""Exact discrete three-variable causal model (C -> X, C -> Y, X -> Y).

Pure 64-bit enumeration, no sampling: observational conditioning,
backdoor adjustment, graph-surgery intervention, the total-variation
gap of the expectation-into-argument approximation, and a sweep of both
gaps over random models.
"""

from dataclasses import dataclass

import numpy as np

from .rngs import derive_rng

PROB_TOL = 1e-12
SWEEP_MAX_CARD = 5  # largest |C|, |X|, |Y| drawn by gap_sweep


class SCMError(ValueError):
    """Invalid CPT or query against the discrete causal model."""


def _check_rows(name: str, table: np.ndarray):
    if np.any(table < 0):
        raise SCMError(f"{name} has negative entries")
    sums = table.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > PROB_TOL):
        raise SCMError(f"{name} rows must sum to 1 within {PROB_TOL}, got {sums}")


@dataclass(frozen=True)
class DiscreteSCM:
    """p_c: (|C|,); p_x_given_c: (|C|,|X|); p_y_given_xc: (|X|,|C|,|Y|)."""

    p_c: np.ndarray
    p_x_given_c: np.ndarray
    p_y_given_xc: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p_c", np.asarray(self.p_c, dtype=np.float64))
        object.__setattr__(self, "p_x_given_c", np.asarray(self.p_x_given_c, dtype=np.float64))
        object.__setattr__(self, "p_y_given_xc", np.asarray(self.p_y_given_xc, dtype=np.float64))
        _check_rows("p_c", self.p_c)
        _check_rows("p_x_given_c", self.p_x_given_c)
        _check_rows("p_y_given_xc", self.p_y_given_xc)
        nc = self.p_c.shape[0]
        nx = self.p_x_given_c.shape[1]
        if self.p_x_given_c.shape[0] != nc:
            raise SCMError("p_x_given_c row count must match |C|")
        if self.p_y_given_xc.shape[:2] != (nx, nc):
            raise SCMError("p_y_given_xc must be indexed (x, c, y)")

    @property
    def n_c(self):
        return self.p_c.shape[0]

    @property
    def n_x(self):
        return self.p_x_given_c.shape[1]

    @property
    def n_y(self):
        return self.p_y_given_xc.shape[2]


def _check_dist(p: np.ndarray) -> np.ndarray:
    if abs(p.sum() - 1.0) > PROB_TOL:
        raise SCMError(f"result distribution sums to {p.sum()}, not 1")
    return p


def observational(scm: DiscreteSCM, x: int) -> np.ndarray:
    """P(Y | X=x) = sum_c P(Y | x, c) P(c | x), Bayes over the joint."""
    joint_cx = scm.p_c * scm.p_x_given_c[:, x]  # P(c, X=x)
    px = joint_cx.sum()
    if px <= 0.0:
        raise SCMError(f"P(X={x}) = 0; observational conditioning undefined")
    p_c_given_x = joint_cx / px
    return _check_dist(p_c_given_x @ scm.p_y_given_xc[x])


def backdoor_adjust(scm: DiscreteSCM, x: int) -> np.ndarray:
    """P(Y | do(X=x)) = sum_c P(Y | X=x, C=c) P(C=c)."""
    return _check_dist(scm.p_c @ scm.p_y_given_xc[x])


def intervene_enumerate(scm: DiscreteSCM, x: int) -> np.ndarray:
    """Graph-surgery ground truth: cut C -> X, set X := x, enumerate states.

    Walks every (c, y) assignment of the truncated factorization
    P(c) * P(y | x, c) explicitly and marginalizes; independent of the
    vectorized adjustment path.
    """
    out = np.zeros(scm.n_y, dtype=np.float64)
    for c in range(scm.n_c):
        for y in range(scm.n_y):
            out[y] += float(scm.p_c[c]) * float(scm.p_y_given_xc[x, c, y])
    return _check_dist(out)


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance between two distributions on the same support."""
    return 0.5 * float(np.abs(p - q).sum())


def approximation_gap(scm: DiscreteSCM, x: int) -> float:
    """TV distance between E_C[P(Y|x,C)] and P(Y|x, round(E[C])).

    C values are embedded as their indices; E[C] rounds half away from
    zero to the nearest index.
    """
    exact = backdoor_adjust(scm, x)
    mean_c = float(np.arange(scm.n_c) @ scm.p_c)
    c_star = min(int(np.floor(mean_c + 0.5)), scm.n_c - 1)
    return tv_distance(exact, scm.p_y_given_xc[x, c_star])


def random_scm(rng: np.random.Generator, n_c: int, n_x: int, n_y: int) -> DiscreteSCM:
    """Flat-simplex CPT rows for reproducible property sweeps."""

    def simplex(*shape):
        r = rng.random(shape)
        return r / r.sum(axis=-1, keepdims=True)

    return DiscreteSCM(simplex(n_c), simplex(n_c, n_x), simplex(n_x, n_c, n_y))


def gap_sweep(n_models: int) -> tuple[list, list]:
    """TV of P(Y|x) from P(Y|do(x)), and ``approximation_gap``, for every
    (model, x) of ``n_models`` seeded random SCMs; x with P(X=x) = 0 is skipped."""
    if n_models < 1:
        raise SCMError(f"the sweep needs at least one model, got {n_models}")
    rng = derive_rng(0, "gap-sweep")
    confound_bias, approx_gap = [], []
    for _ in range(n_models):
        n_c, n_x, n_y = (int(rng.integers(2, SWEEP_MAX_CARD + 1)) for _ in range(3))
        model = random_scm(rng, n_c, n_x, n_y)
        for x in range(model.n_x):
            try:
                observed = observational(model, x)
            except SCMError:
                continue
            confound_bias.append(tv_distance(observed, backdoor_adjust(model, x)))
            approx_gap.append(approximation_gap(model, x))
    return confound_bias, approx_gap


def worked_example() -> DiscreteSCM:
    """Binary confounded SCM whose adjusted and observational answers differ."""
    return DiscreteSCM(
        p_c=[0.7, 0.3],
        p_x_given_c=[[0.8, 0.2], [0.1, 0.9]],
        p_y_given_xc=[
            [[0.9, 0.1], [0.5, 0.5]],   # x = 0: P(y | 0, c)
            [[0.4, 0.6], [0.05, 0.95]],  # x = 1
        ],
    )
