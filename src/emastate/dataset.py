"""Containers for multi-participant EMA series.

Time is measured in hours since each participant's study start.  Missing
observations are carried twice: as True inside the boolean ``missing`` mask
and as NaN inside ``Y``.  A NaN cell of ``Y`` is missing whatever the mask
says, also one set after construction: :func:`missing_cells` is that rule,
and the filters, the fits and :meth:`EmaDataset.observed_cells` all count
cells by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmaError


def missing_cells(Y, missing) -> np.ndarray:
    """The cells the filters skip: those ``missing`` marks and the NaN cells of ``Y``."""
    return np.isnan(Y) | np.asarray(missing, dtype=bool)


@dataclass
class Participant:
    pid: str
    timestamps: np.ndarray          # (T,) strictly increasing, hours
    Y: np.ndarray                   # (T, n_obs)
    missing: np.ndarray             # (T, n_obs) bool, True = missing; NaN cells of Y added
    U: np.ndarray                   # (T, n_inputs)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float).reshape(-1)
        self.Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        self.missing = np.atleast_2d(np.asarray(self.missing, dtype=bool))
        self.U = np.asarray(self.U, dtype=float)
        if self.U.ndim == 1:
            self.U = self.U.reshape(len(self.timestamps), -1)
        T = len(self.timestamps)
        if self.Y.shape[0] != T or self.missing.shape != self.Y.shape or self.U.shape[0] != T:
            raise EmaError("INVALID_MODEL",
                           f"participant {self.pid}: inconsistent row counts "
                           f"(T={T}, Y={self.Y.shape}, mask={self.missing.shape}, "
                           f"U={self.U.shape})")
        self.missing = missing_cells(self.Y, self.missing)
        # compared, not differenced: an overflowing gap is the gap kernel's error
        t = self.timestamps
        if not (np.isfinite(t).all() and (t[1:] > t[:-1]).all()):
            raise EmaError("NON_MONOTONE_TIME", f"participant {self.pid}: timestamps must be "
                                                f"finite and strictly increasing")

    @property
    def n_pings(self) -> int:
        return len(self.timestamps)

    @property
    def observed(self) -> np.ndarray:
        """(T, n_obs) bool: the cells the filters use."""
        return ~missing_cells(self.Y, self.missing)

    def copy(self) -> "Participant":
        return Participant(self.pid, self.timestamps.copy(), self.Y.copy(),
                           self.missing.copy(), self.U.copy(), dict(self.metadata))


@dataclass
class EmaDataset:
    participants: list[Participant]
    y_names: list[str]
    u_names: list[str]
    metadata: dict = field(default_factory=dict)

    @property
    def n_participants(self) -> int:
        return len(self.participants)

    @property
    def n_obs(self) -> int:
        return len(self.y_names)

    @property
    def n_inputs(self) -> int:
        return len(self.u_names)

    def observed_cells(self) -> int:
        """Count of observed scalar measurements across all participants."""
        return int(sum(p.observed.sum() for p in self.participants))

    def copy(self) -> "EmaDataset":
        return EmaDataset([p.copy() for p in self.participants],
                          list(self.y_names), list(self.u_names), dict(self.metadata))


def default_names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(n)]


def datasets_equal(a: EmaDataset, b: EmaDataset, atol: float = 0.0) -> bool:
    """Data equality (ids, times, values, masks, inputs); metadata ignored."""
    if a.y_names != b.y_names or a.u_names != b.u_names:
        return False
    if len(a.participants) != len(b.participants):
        return False
    for pa, pb in zip(a.participants, b.participants):
        if pa.pid != pb.pid or pa.n_pings != pb.n_pings:
            return False
        if not np.allclose(pa.timestamps, pb.timestamps, atol=atol, rtol=atol):
            return False
        if not np.array_equal(pa.observed, pb.observed):
            return False
        oa, ob = pa.Y[pa.observed], pb.Y[pb.observed]
        if not np.allclose(oa, ob, atol=atol, rtol=atol):
            return False
        if pa.U.shape != pb.U.shape or not np.allclose(pa.U, pb.U, atol=atol, rtol=atol):
            return False
    return True
