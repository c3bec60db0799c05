"""Closed-form states for the measurement-calculus workload, in plain numpy.

Nothing here imports qpel: these are the known answers the checker's output
is compared against.  Qubits are ordered left to right as in the program's
left-nested tensor, so a basis index is the binary number x1 x2 ... xn.

References: Danos, Kashefi & Panangaden, *The measurement calculus*,
arXiv:0704.1263 (the J(alpha) decomposition and the linear cluster state).
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
MINUS = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def cluster_state(n: int) -> np.ndarray:
    """|C_n> = prod_i CZ(i, i+1) |+>^n, amplitude 2^(-n/2) (-1)^(sum x_i x_(i+1))."""
    amps = np.empty(2**n, dtype=complex)
    for idx in range(2**n):
        bits = [(idx >> (n - 1 - i)) & 1 for i in range(n)]
        parity = sum(bits[i] * bits[i + 1] for i in range(n - 1)) % 2
        amps[idx] = -1.0 if parity else 1.0
    return amps / math.sqrt(2.0**n)


def j_gate(alpha: float) -> np.ndarray:
    """J(alpha) = H diag(1, e^(i alpha))."""
    return HADAMARD @ np.diag([1.0, cmath.exp(1j * alpha)])


def chain_state(inp: np.ndarray, angles) -> np.ndarray:
    """Output of a chain of one-qubit teleportation steps.

    A step entangles the current qubit with a fresh |+> ancilla, measures the
    current qubit against the projector onto |+_(q pi)>, and applies X to the
    ancilla on the other outcome; the ancilla then carries J(-q pi) applied to
    the input, whichever outcome occurred.  Angle q = 0 is the Hadamard.
    """
    psi = np.asarray(inp, dtype=complex)
    for q in angles:
        psi = j_gate(-math.pi * float(Fraction(q))) @ psi
    return psi


def density(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())
