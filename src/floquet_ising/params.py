"""Model parameters, lattice and quench definitions.

The chain evolves once per period with U_F = exp(i J sum_j X_j X_{j+1}) *
exp(i h sum_j Z_j), where J = alpha_J + i beta_J and h = alpha_h + i beta_h
are complex couplings in radians.  Figure-style inputs quote couplings in
units of pi/4; ``units="pi4"`` converts on construction and everything
downstream works in raw radians.

Site indices are 1-based at every interface.  Site j owns the two Majorana
operators a_{2j-1}, a_{2j} (0-based array rows 2j-2 and 2j-1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedPlaneError, ValidationError

PI4 = math.pi / 4.0

_CRIT_TOL = 1e-12


class PhaseLabel(enum.Enum):
    TRIVIAL = "trivial"
    ZERO_MODE = "0"
    PI_MODE = "pi"
    ZERO_PI = "0pi"
    CRITICAL_VOLUME = "critical-volume"
    CRITICAL_LOG = "critical-log"
    AMBIGUOUS = "ambiguous"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class ModelParams:
    """Complex couplings of the kicked chain, stored in raw radians."""

    alpha_J: float
    beta_J: float
    alpha_h: float
    beta_h: float

    def __post_init__(self):
        for name in ("alpha_J", "beta_J", "alpha_h", "beta_h"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")

    @property
    def J(self) -> complex:
        return complex(self.alpha_J, self.beta_J)

    @property
    def h(self) -> complex:
        return complex(self.alpha_h, self.beta_h)

    @property
    def equal_alpha(self) -> bool:
        return abs(self.alpha_J - self.alpha_h) < _CRIT_TOL

    def in_pi4_units(self) -> tuple[float, float, float, float]:
        return (self.alpha_J / PI4, self.beta_J / PI4,
                self.alpha_h / PI4, self.beta_h / PI4)


def make_params(alpha_J, beta_J, alpha_h, beta_h, units="pi4") -> ModelParams:
    """Build ModelParams, converting from pi/4 units unless units="rad"."""
    vals = (alpha_J, beta_J, alpha_h, beta_h)
    if units == "pi4":
        vals = tuple(v * PI4 for v in vals)
    elif units != "rad":
        raise ValidationError(f"units must be 'pi4' or 'rad', got {units!r}")
    return ModelParams(*vals)


class BoundaryCondition(enum.Enum):
    PBC_EVEN = "pbc-even"   # antiperiodic fermions, even parity sector
    PBC_ODD = "pbc-odd"     # periodic fermions, odd parity sector
    OBC = "obc"

    def __str__(self):
        return self.value

    @classmethod
    def _missing_(cls, value):
        raise ValidationError(f"bc must be one of {', '.join(map(str, cls))}, got {value!r}")

    @property
    def periodic(self) -> bool:
        return self is not BoundaryCondition.OBC

    @property
    def wrap_sign(self) -> float:
        """Sign carried by the wraparound Majorana bond."""
        if self is BoundaryCondition.PBC_EVEN:
            return -1.0
        if self is BoundaryCondition.PBC_ODD:
            return 1.0
        raise ValidationError("open chain has no wraparound bond")


@dataclass(frozen=True)
class LatticeSpec:
    L: int
    bc: BoundaryCondition = BoundaryCondition.PBC_EVEN

    def __post_init__(self):
        if self.L < 2:
            raise ValidationError(f"need L >= 2 sites, got {self.L}")

    @property
    def n_majorana(self) -> int:
        return 2 * self.L


def lattice(L, bc="pbc-even") -> LatticeSpec:
    return LatticeSpec(L, BoundaryCondition(bc))


@dataclass(frozen=True)
class SubsystemSpec:
    """Contiguous block of sites, 1-based, wrapping only on periodic chains."""

    start: int
    length: int

    def __post_init__(self):
        if self.start < 1 or self.length < 1:
            raise ValidationError("subsystem start and length must be >= 1")

    def sites(self, lat: LatticeSpec) -> list[int]:
        if self.length > lat.L or self.start > lat.L:
            raise ValidationError(f"subsystem of {self.length} sites from site {self.start} "
                                  f"does not fit the chain of {lat.L} sites")
        if not lat.bc.periodic and self.start + self.length - 1 > lat.L:
            raise ValidationError("open chain: subsystem may not wrap")
        return [(self.start - 1 + i) % lat.L + 1 for i in range(self.length)]

    def majorana_indices(self, lat: LatticeSpec) -> np.ndarray:
        """0-based Majorana row indices for the block, in site order."""
        return majorana_indices(self.sites(lat))


def majorana_indices(sites) -> np.ndarray:
    """0-based Majorana rows (2j-2, 2j-1) of each 1-based site j, in order."""
    j = np.asarray(sites, dtype=int)
    return np.stack([2 * j - 2, 2 * j - 1], axis=-1).reshape(-1)


@dataclass(frozen=True)
class TeePartition:
    """Four contiguous segments covering [1, L].

    The combination S_AB + S_BC - S_B - S_ABC is the conditional mutual
    information between A and C given B, so A and C must be the two segments
    holding the chain ends: spatially the chain reads A | B | D | C.  With C
    placed adjacent to B the combination is identically zero on any
    dimerized state and never detects the nonlocal edge pair.
    """

    lengths: tuple[int, int, int, int]  # spatial order A, B, D, C

    def __post_init__(self):
        if len(self.lengths) != 4 or any(l < 1 for l in self.lengths):
            raise ValidationError("need four positive segment lengths")

    @classmethod
    def quarters(cls, L: int) -> "TeePartition":
        q, r = divmod(L, 4)
        if q == 0:
            raise ValidationError(f"chain of {L} sites cannot be quartered")
        ls = [q, q, q, q + r]
        return cls(tuple(ls))

    def segments(self, lat: LatticeSpec) -> dict[str, list[int]]:
        if sum(self.lengths) != lat.L:
            raise ValidationError(
                f"segment lengths {self.lengths} do not sum to L={lat.L}")
        la, lb, ld, lc = self.lengths
        a = list(range(1, la + 1))
        b = list(range(la + 1, la + lb + 1))
        d = list(range(la + lb + 1, la + lb + ld + 1))
        c = list(range(la + lb + ld + 1, lat.L + 1))
        return {"A": a, "B": b, "C": c, "D": d}


@dataclass(frozen=True)
class ProductState:
    """Site-wise product state; basis 'z' uses occupation signs via
    Z_j = 1 - 2 n_j (+1 empty, -1 occupied), basis 'x' polarizes along X."""

    basis: str
    pattern: tuple[int, ...]

    def __post_init__(self):
        if self.basis not in ("z", "x"):
            raise ValidationError("basis must be 'z' or 'x'")
        if any(s not in (-1, 1) for s in self.pattern):
            raise ValidationError("pattern entries must be +1 or -1")

    @property
    def L(self) -> int:
        return len(self.pattern)

    def occupations(self) -> list[int]:
        if self.basis != "z":
            raise ValidationError("occupations defined for z-basis states only")
        return [0 if s == 1 else 1 for s in self.pattern]

    def fermion_parity(self) -> int:
        """+1 for even, -1 for odd total occupation."""
        return -1 if sum(self.occupations()) % 2 else 1


def named_state(name: str, L: int, seed=None) -> ProductState:
    """Resolve the standard initial states by name."""
    name = name.lower().replace("_", "-")
    if name == "neel-fermion":
        # odd sites occupied, even sites empty
        return ProductState("z", tuple(-1 if j % 2 == 1 else 1
                                       for j in range(1, L + 1)))
    if name == "all-up":
        return ProductState("z", (1,) * L)
    if name == "all-down":
        return ProductState("z", (-1,) * L)
    if name == "x-down":
        return ProductState("x", (-1,) * L)
    if name == "x-up":
        return ProductState("x", (1,) * L)
    if name == "antiferro-x":
        return ProductState("x", tuple(1 if j % 2 else -1 for j in range(L)))
    if name == "random-x":
        rng = np.random.default_rng(seed)
        return ProductState("x", tuple(int(s) for s in rng.choice([-1, 1], L)))
    raise ValidationError(f"unknown initial state {name!r}")


@dataclass(frozen=True)
class QuenchConfig:
    initial_state: ProductState
    n_periods: int = 200
    K: float = 0.0  # longitudinal X field, spin simulator only (radians)

    def __post_init__(self):
        if self.n_periods < 1:
            raise ValidationError("n_periods must be positive")

    def require_free_fermion(self) -> None:
        """The Gaussian engine and the quasienergy spectra cover K = 0 only."""
        if self.K != 0.0:
            raise ValidationError("longitudinal K field breaks Gaussianity; "
                                  "use the spin simulator")


def preferred_sector(state: ProductState) -> BoundaryCondition:
    """Fermion boundary condition matching the state's parity sector."""
    if state.fermion_parity() == 1:
        return BoundaryCondition.PBC_EVEN
    return BoundaryCondition.PBC_ODD


# --- phase labels from parameters (the alpha_J = alpha_h plane) ------------

def phase_label_from_params(p: ModelParams) -> PhaseLabel:
    """Phase of the steady state from couplings alone.

    Boundaries sit at |beta_J| = |beta_h| and alpha = pi/4 (mod pi/2); the
    four interior quadrants carry the edge-mode labels.  Points within
    ``_CRIT_TOL`` of a boundary are labeled critical.  Shifting alpha by pi/2
    leaves the bulk spectrum invariant but moves the coupling kick by a
    quasienergy pi, exchanging zero and pi edge modes, so labels swap
    (0)<->(pi) and trivial<->(0 pi) on odd half-period windows.
    """
    if not p.equal_alpha:
        raise UnsupportedPlaneError(
            "parameter-based labels cover only alpha_J = alpha_h; "
            "use the spectral classifier for general couplings")
    half = math.pi / 2.0
    window = math.floor(p.alpha_J / half)
    a = p.alpha_J - window * half  # representative in [0, pi/2)
    on_quarter_line = abs(a - PI4) < _CRIT_TOL
    on_axis = min(a, half - a) < _CRIT_TOL
    if on_quarter_line:
        return PhaseLabel.CRITICAL_VOLUME
    if abs(p.beta_J + p.beta_h) < _CRIT_TOL:
        # volume law protected away from alpha = 0 mod pi/2 only
        return PhaseLabel.CRITICAL_LOG if on_axis else PhaseLabel.CRITICAL_VOLUME
    if abs(p.beta_J - p.beta_h) < _CRIT_TOL:
        return PhaseLabel.CRITICAL_LOG
    low = a < PI4
    weaker = abs(p.beta_J) < abs(p.beta_h)
    if window % 2:  # odd half-period window: edge-mode kinds exchange
        low = not low
    if low:
        return PhaseLabel.TRIVIAL if weaker else PhaseLabel.ZERO_MODE
    return PhaseLabel.ZERO_PI if weaker else PhaseLabel.PI_MODE


# --- config files -----------------------------------------------------------

def _int_list(value: str) -> list[int]:
    return [int(s) for s in value.split(",")]


def _beta_grid(value: str) -> tuple[float, float, int]:
    start, stop, count = value.split(",")  # the arguments of np.linspace
    if int(count) < 1:
        raise ValidationError(f"grid count must be >= 1, got {count.strip()}")
    return float(start), float(stop), int(count)


_CONFIG_KEYS = {
    "alpha_J": float, "beta_J": float, "alpha_h": float, "beta_h": float,
    "alpha": float, "units": str, "L": int, "bc": str, "n_periods": int,
    "K": float, "initial_state": str, "seed": int,
    "subsystem_start": int, "subsystem_length": int, "scaling_ratio": int,
    "scaling_sizes": _int_list, "tee_sizes": _int_list, "tee_beta_j": _beta_grid,
}


def parse_config(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {ln}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        conv = _CONFIG_KEYS.get(key, str)
        try:
            out[key] = conv(value)
        except ValueError as exc:
            raise ValidationError(f"config line {ln}: bad value for {key}: {value}") from exc
    return out


def swept_value(key: str, value: float):
    """A grid value of config key ``key``: a whole number for an int key,
    else the float as given."""
    if _CONFIG_KEYS.get(key) is not int:
        return value
    if not value.is_integer():
        raise ValidationError(f"{key} takes whole numbers, got {value!r}")
    return int(value)


def _required(cfg: dict, key: str):
    if key not in cfg:
        raise ValidationError(f"config missing required key {key!r}")
    return cfg[key]


def params_from_config(cfg: dict) -> ModelParams:
    """Couplings from the config; ``alpha`` sets both alpha_J and alpha_h."""
    if "alpha" in cfg:
        if "alpha_J" in cfg or "alpha_h" in cfg:
            raise ValidationError("give alpha or alpha_J and alpha_h, not both")
        cfg = {**cfg, "alpha_J": cfg["alpha"], "alpha_h": cfg["alpha"]}
    return make_params(_required(cfg, "alpha_J"), cfg.get("beta_J", 0.0),
                       _required(cfg, "alpha_h"), cfg.get("beta_h", 0.0),
                       units=cfg.get("units", "pi4"))


def quench_from_config(cfg: dict, L: int) -> QuenchConfig:
    """The configured quench of an ``L``-site chain (``L`` need not be a
    config key, so size scans build one quench per size)."""
    K = cfg.get("K", 0.0)
    return QuenchConfig(named_state(cfg.get("initial_state", "neel-fermion"), L,
                                    seed=cfg.get("seed")),
                        n_periods=cfg.get("n_periods", 200),
                        K=K * PI4 if cfg.get("units", "pi4") == "pi4" else K)


def subsystem_from_config(cfg: dict, L: int) -> SubsystemSpec:
    """The configured entropy block of an ``L``-site chain."""
    return SubsystemSpec(cfg.get("subsystem_start", 1),
                         cfg.get("subsystem_length", max(2, L // 10)))


def model_from_config(cfg: dict) -> tuple[ModelParams, LatticeSpec, QuenchConfig]:
    """Assemble the three core objects from a parsed config mapping."""
    params = params_from_config(cfg)
    lat = lattice(_required(cfg, "L"), cfg.get("bc", "pbc-even"))
    return params, lat, quench_from_config(cfg, lat.L)
