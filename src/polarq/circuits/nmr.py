"""Pulse-sequence realization of CNOT on a frequency-shifted qubit pair.

When the target transition frequency depends on the control state (shift
dw_shift between the two conditional transitions), CNOT follows from three
steps: a pi/2 rotation of the target about -y, free evolution long enough
for the two conditional phases to differ by pi, and a pi/2 rotation about
+y.  The result equals CNOT only up to single-qubit z-phases and a global
phase, so the report quotes the deviation after stripping the three free
angles.  With phi the conditional phase of the wait, the stripping angles
(global, control-z, target-z) = (0, arg((1 - e^{-i phi}) / 2), 0) leave a
deviation of |cos(phi / 2)|, the least any choice of the three angles gives.

Qubit 0 is the control (most significant bit), qubit 1 the target.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

CNOT_MATRIX = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    dtype=complex,
)


def _ry(beta: float) -> np.ndarray:
    c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _phase_frame(angles) -> np.ndarray:
    g, zc, zt = angles
    return np.diag(
        [
            cmath.exp(1j * g),
            cmath.exp(1j * (g + zt)),
            cmath.exp(1j * (g + zc)),
            cmath.exp(1j * (g + zc + zt)),
        ]
    )


def _framed_deviation(u: np.ndarray, angles) -> float:
    return float(np.max(np.abs(u - _phase_frame(angles) @ CNOT_MATRIX)))


@dataclass(frozen=True, eq=False)
class CnotSequenceReport:
    """Outcome of the three-step sequence against an ideal CNOT.

    deviation is min over a global phase and one z-phase per qubit of
    max-entry |U - D(phases) * CNOT|; phases holds the minimizing angles
    (global, control-z, target-z).  wait_time is in the same time units as
    1/dw_shift.
    """

    unitary: np.ndarray
    deviation: float
    phases: tuple[float, float, float]
    dw_shift: float
    wait_time: float
    wait_scale: float
    angular_frequency: bool


def nmr_cnot_sequence(
    dw_shift: float, angular_frequency: bool = True, wait_scale: float = 1.0
) -> CnotSequenceReport:
    """Build the pi/2 -- wait -- pi/2 sequence and compare it to CNOT.

    Args:
        dw_shift: conditional frequency shift of the target, > 0.
        angular_frequency: dw_shift is in radians per unit time; the phase
            accumulated in time t is then dw_shift * t and the ideal wait is
            pi/dw_shift.  With False, dw_shift is a cycles-per-unit-time
            frequency and the ideal wait is the familiar 1/(2 dw_shift).
        wait_scale: multiple of the ideal wait actually used; 1.0 gives a
            conditional phase of exactly pi, 0.5 only pi/2.

    Raises:
        ValueError: dw_shift <= 0 or wait_scale < 0.
    """
    if dw_shift <= 0:
        raise ValueError(f"frequency shift must be > 0, got {dw_shift}")
    if wait_scale < 0:
        raise ValueError(f"wait_scale must be >= 0, got {wait_scale}")
    ideal_wait = (
        math.pi / dw_shift if angular_frequency else 0.5 / dw_shift
    )
    wait_time = wait_scale * ideal_wait
    # conditional phase on the control=1 target transition after the wait
    phi = math.pi * wait_scale
    eye = np.eye(2, dtype=complex)
    pulse_in = np.kron(eye, _ry(-math.pi / 2.0))
    free = np.diag([1.0, 1.0, 1.0, cmath.exp(-1j * phi)])
    pulse_out = np.kron(eye, _ry(math.pi / 2.0))
    u = pulse_out @ free @ pulse_in

    angles = (0.0, cmath.phase((1.0 - cmath.exp(-1j * phi)) / 2.0), 0.0)
    return CnotSequenceReport(
        unitary=u,
        deviation=_framed_deviation(u, angles),
        phases=angles,
        dw_shift=dw_shift,
        wait_time=wait_time,
        wait_scale=wait_scale,
        angular_frequency=angular_frequency,
    )
