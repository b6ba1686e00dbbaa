"""Exception hierarchy for lipfree.

Every exception carries enough context (witnessing indices, offending
values) to reconstruct why a computation was rejected. Input-level
problems derive from :class:`InputError`; violations of internal
contracts that should never fire on valid input derive from
:class:`InternalCheckError`.
"""

from __future__ import annotations


class LipfreeError(Exception):
    """Base class for all lipfree errors."""


class InputError(LipfreeError):
    """Invalid input data or arguments (CLI exit code 2)."""


class InternalCheckError(LipfreeError):
    """A self-check failed; indicates a bug, not bad input (CLI exit code 3)."""


# -- metric validation -------------------------------------------------------

class AsymmetricDistance(InputError):
    def __init__(self, i: int, j: int, dij: float, dji: float):
        self.witness = (i, j)
        super().__init__(f"d[{i}][{j}]={dij!r} != d[{j}][{i}]={dji!r}")


class NegativeDistance(InputError):
    def __init__(self, i: int, j: int, value: float):
        self.witness = (i, j)
        super().__init__(f"d[{i}][{j}]={value!r} is negative or not finite")


class ZeroDistanceDistinctPoints(InputError):
    def __init__(self, i: int, j: int):
        self.witness = (i, j)
        super().__init__(f"distinct points {i}, {j} at distance 0")


class TriangleViolation(InputError):
    def __init__(self, i: int, j: int, k: int, dik: float, dij: float, djk: float,
                 tol: float):
        self.witness = (i, j, k)
        self.tol = tol  # the tolerance the failed comparison used
        super().__init__(
            f"triangle inequality fails at ({i},{j},{k}): "
            f"d[{i}][{k}]={dik!r} > d[{i}][{j}]+d[{j}][{k}]={dij + djk!r}"
        )


class BadBaseIndex(InputError):
    def __init__(self, base: int, n: int):
        super().__init__(f"base index {base} out of range for {n} points")


class DisconnectedGraph(InputError):
    def __init__(self, component: list[int]):
        self.component = component
        super().__init__(f"graph is disconnected; unreachable from node 0: {component}")


# -- functions and extension --------------------------------------------------

class FloorNormTooLarge(InputError):
    def __init__(self, floor_norm: float, sub_norm: float):
        super().__init__(
            f"floor has Lipschitz norm {floor_norm!r} exceeding the "
            f"subset function norm {sub_norm!r}"
        )


class FloorExceedsFunction(InputError):
    def __init__(self, point: int, floor_value: float, f_value: float):
        self.witness = point
        super().__init__(
            f"floor({point})={floor_value!r} exceeds f({point})={f_value!r} on the subset"
        )


class NotAnIntervalNet(InputError):
    def __init__(self, reason: str = "space is not a uniform net on [0,1]"):
        super().__init__(reason)


class AnchorNotOnNet(InputError):
    def __init__(self, x: float):
        super().__init__(f"anchor {x!r} is not a net point")


# -- free vectors -------------------------------------------------------------

class NotZeroSum(InputError):
    def __init__(self, total: float):
        super().__init__(f"coefficients sum to {total!r}, not 0")


class SpaceMismatch(InputError):
    def __init__(self, what: str = "operands live over different spaces"):
        super().__init__(what)


# -- composition --------------------------------------------------------------

class BasePointNotPreserved(InputError):
    def __init__(self, image_of_base: int, base_codomain: int):
        super().__init__(
            f"map sends the base point to {image_of_base}, not the codomain base "
            f"{base_codomain}"
        )


class MapNormExceedsOne(InputError):
    def __init__(self, norm: float, pair: tuple[int, int], tol: float):
        self.norm = norm
        self.pair = pair
        super().__init__(
            f"map has Lipschitz constant {norm!r} > 1 + {tol!r}, attained at pair {pair}")


class NotNorming(InputError):
    def __init__(self, failing_pair: tuple[int, int]):
        self.failing_pair = failing_pair
        super().__init__(
            f"supplied pair set is not norming: extreme molecule {failing_pair} "
            f"is outside its convex hull"
        )


class MethodDisagreement(InternalCheckError):
    """Two independent methods disagreed. This falsifies the implementation.

    ``results`` holds what each method computed, keyed by method;
    ``inputs`` and ``tolerances`` are the CLI command's, for its report.
    """

    def __init__(self, message: str, results: dict, inputs=(), tolerances=None):
        self.results, self.inputs, self.tolerances = results, list(inputs), tolerances or {}
        super().__init__(message)


# -- geodesic -----------------------------------------------------------------

class NotStraightPath(InputError):
    def __init__(self, defect: float):
        self.defect = defect
        super().__init__(f"point sequence is not metrically straight (defect {defect!r})")


class InvariantFailure(InternalCheckError):
    def __init__(self, what: str):
        super().__init__(what)


class NoStoredPath(InputError):
    def __init__(self, pair: tuple[int, int]):
        super().__init__(f"no geodesic path stored for pair {pair}")


class RangeNotDense(InputError):
    def __init__(self, worst_point: int, gap: float, allowed: float):
        self.worst_point = worst_point
        self.gap = gap
        super().__init__(
            f"map range is not dense: point {worst_point} is at distance {gap!r} "
            f"from the image (allowed {allowed!r})"
        )


class CodomainNotInterval(InputError):
    def __init__(self):
        super().__init__("codomain of the map is not an interval net")


# -- cli / io -----------------------------------------------------------------

class MalformedInput(InputError):
    def __init__(self, json_path: str, reason: str):
        self.json_path = json_path
        self.reason = reason
        super().__init__(f"{json_path}: {reason}")
