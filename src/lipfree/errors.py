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


class NonzeroSelfDistance(InputError):
    def __init__(self, i: int, value: float):
        self.witness = (i, i)
        super().__init__(f"d[{i}][{i}]={value!r} is not zero")


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
    def __init__(self, reason: str):
        super().__init__(f"graph is disconnected: {reason}")


# -- functions ----------------------------------------------------------------

class NotAnIntervalNet(InputError):
    def __init__(self):  # an interval net is known by construction, never by its matrix
        super().__init__("space was not built by interval_net")


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
    ``tolerances`` are the CLI command's, for its report.
    """

    def __init__(self, message: str, results: dict, tolerances=None):
        self.results, self.tolerances = results, tolerances or {}
        super().__init__(message)


# -- geodesic -----------------------------------------------------------------

class NotStraightPath(InputError, ValueError):  # a ValueError on a library argument too
    def __init__(self, pair: tuple[int, int], reason: str):
        self.pair = pair  # the key the refused path was stored under
        super().__init__(reason)


class InvariantFailure(InternalCheckError):
    def __init__(self, what: str):
        super().__init__(what)


class NoStoredPath(InputError):
    def __init__(self, pair: tuple[int, int]):
        super().__init__(f"no geodesic path stored for pair {pair}")


# -- cli / io -----------------------------------------------------------------

class MalformedInput(InputError):
    def __init__(self, json_path: str, reason: str):
        self.json_path = json_path
        self.reason = reason
        super().__init__(f"{json_path}: {reason}")
