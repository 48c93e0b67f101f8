"""Shared seeded builders and reference checks for the test suite."""

import math

import numpy as np

from normlog.config import CHECK_TOL
from normlog.harness import Stream, random_unitary
from normlog.linalg import dagger, frob
from normlog.report import CheckReport
from normlog.spectral import borel_calculus, normal_eig, spectral_measure


def gaussian_matrix(stream, n):
    """The n x n matrix of complex(normal(), normal()) / sqrt(2), drawn
    row-major from ``stream`` one scalar at a time."""
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = complex(stream.normal(), stream.normal()) / math.sqrt(2)
    return out


def random_hermitian(n, seed, scale=1.0):
    g = gaussian_matrix(Stream(seed), n)
    return scale * (g + dagger(g)) / 2


def random_normal_matrix(n, seed, re_range=2.0, im_range=2.0, min_gap=1e-4):
    """Random normal matrix with eigenvalues in a centered box.

    Eigenvalues are pairwise separated by ``min_gap`` so decompositions
    cluster them the intended way.
    """
    stream = Stream(seed)
    eigs = []
    while len(eigs) < n:
        z = complex(stream.uniform(-re_range, re_range),
                    stream.uniform(-im_range, im_range))
        if all(abs(z - w) >= min_gap for w in eigs):
            eigs.append(z)
    u = random_unitary(n, stream.subseed())
    return u @ np.diag(eigs) @ dagger(u), eigs, u


def validate_decomposition(dec, x=None):
    """Residuals of the invariants of a spectral decomposition, not
    thresholded: each eigenprojection is idempotent and Hermitian, they
    are mutually orthogonal, the eigenbasis is unitary and, given ``x``,
    it reconstructs ``x``."""
    projs = [dec.projection(j) for j in range(len(dec.eigenvalues))]
    res = {"idempotent": max(frob(p @ p - p) for p in projs),
           "hermitian": max(frob(p - dagger(p)) for p in projs),
           "orthogonal": max((frob(p @ q) for i, p in enumerate(projs)
                              for q in projs[i + 1:]), default=0.0),
           "resolution": frob(dec.v @ dagger(dec.v) - np.eye(dec.n))}
    if x is not None:
        res["reconstruction"] = frob(dec.reconstruct() - x)
    return res


def verify_pushforward(dec, f, omega):
    """Check that the measure of f(X) pulls back through f.

    Compares the projection of f(X) onto ``omega`` (computed from a fresh
    decomposition of f(X)) against the sum of projections of X whose
    eigenvalue maps into ``omega``; passes within ``CHECK_TOL * n``.
    """
    dec_f = normal_eig(borel_calculus(dec, f))
    left = spectral_measure(dec_f, omega)
    right = dec.select(omega.contains([complex(f(lam))
                                       for lam in dec.eigenvalues]))
    residual = frob(left - right)
    bound = CHECK_TOL * dec.n
    return CheckReport(check_name="pushforward", passed=residual <= bound,
                       hypothesis_met=True,
                       residuals={"pushforward": residual},
                       tolerances={"pushforward": bound})
