"""The compiled kernel: schedule + loop nest + cell expression.

A :class:`Kernel` is the backend-independent product of compiling one
DSL function for one schedule (the program-synthesis template of
Figure 8): iterate the partitions in order, compute every cell of a
partition concurrently, synchronise, continue. Backends turn it into
CUDA C text or executable Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from ..analysis.affine import Affine
from ..analysis.plan import function_plan
from ..lang.typecheck import CheckedFunction
from ..lang.types import HmmType, MatrixType, SeqType
from ..polyhedral.codegen import generate_loops
from ..polyhedral.loopast import LoopNest
from ..schedule.schedule import Schedule
from ..schedule.window import window_size
from . import expr as ir
from .lower import LoweredBody, lower_function

#: Prefix of the symbolic upper-bound parameter for each dimension.
UB_PREFIX = "ub_"


@dataclass
class Kernel:
    """One compiled (function, schedule) pair."""

    func: CheckedFunction
    schedule: Schedule
    nest: LoopNest
    body: LoweredBody
    window: Optional[int]

    @property
    def name(self) -> str:
        """The function's name."""
        return self.func.name

    @property
    def dims(self) -> Tuple[str, ...]:
        """The recursion dimensions, in order."""
        return self.func.dim_names

    @property
    def rank(self) -> int:
        """Number of recursion dimensions."""
        return len(self.dims)

    @property
    def logspace(self) -> bool:
        """Does the table hold log-probabilities?"""
        return self.body.logspace

    @property
    def counts(self) -> ir.OpCounts:
        """Static per-cell operation counts."""
        return self.body.counts

    def ub_params(self) -> Tuple[str, ...]:
        """The symbolic bound parameters of the nest, in dim order."""
        return tuple(UB_PREFIX + d for d in self.dims)

    def referenced_names(self) -> Dict[str, Set[str]]:
        """Names of sequences, matrices, models and scalars the cell
        expression touches (drives context preparation).

        Memoised on the instance (same idiom as the cache key's
        ``_cache_source_form``): context preparation asks per problem,
        and a lane-batched map group shares one kernel across every
        member, so the IR walk should run once, not once per member.
        """
        cached = self.__dict__.get("_referenced_names")
        if cached is not None:
            return cached
        seqs: Set[str] = set()
        matrices: Set[str] = set()
        hmms: Set[str] = set()
        scalars: Set[str] = set()
        for node in ir.walk(self.body.cell):
            if isinstance(node, ir.SeqRead):
                seqs.add(node.seq)
            elif isinstance(node, ir.MatrixRead):
                matrices.add(node.matrix)
            elif isinstance(
                node,
                (ir.StateFlag, ir.EmissionRead, ir.TransField,
                 ir.ReduceLoop),
            ):
                hmms.add(node.hmm)
            elif isinstance(node, ir.ArgRef):
                scalars.add(node.name)
        refs = {
            "seqs": seqs,
            "matrices": matrices,
            "hmms": hmms,
            "scalars": scalars,
        }
        self.__dict__["_referenced_names"] = refs
        return refs

    # -- serialisation -------------------------------------------------------
    #
    # A kernel is the unit the persistent compile cache stores: the
    # whole plan (checked function, schedule, nest, lowered body)
    # round-trips through pickle, and the executable callable is
    # rebuilt by re-exec'ing the backend's generated source.

    #: Bump when the pickled layout of Kernel (or anything it
    #: references) changes incompatibly; stale cache entries are then
    #: rejected instead of mis-loaded.
    SERIAL_FORMAT = 1

    def to_payload(self) -> bytes:
        """Serialize the full kernel plan for the persistent cache."""
        import pickle

        return pickle.dumps(
            {"format": Kernel.SERIAL_FORMAT,
             "schedule": self.schedule.to_json(),
             "kernel": self},
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @staticmethod
    def from_payload(data: bytes) -> "Kernel":
        """Rebuild a kernel plan from :meth:`to_payload` output.

        Raises ``ValueError`` on any malformed or version-mismatched
        payload — callers treat that as a cache miss, never a crash.
        """
        import pickle

        try:
            record = pickle.loads(data)
            if record["format"] != Kernel.SERIAL_FORMAT:
                raise ValueError(
                    f"kernel payload format {record['format']!r} != "
                    f"{Kernel.SERIAL_FORMAT}"
                )
            kernel = record["kernel"]
        except ValueError:
            raise
        except Exception as err:
            raise ValueError(f"corrupt kernel payload: {err}") from err
        if not isinstance(kernel, Kernel):
            raise ValueError(
                f"kernel payload holds {type(kernel).__name__}"
            )
        return kernel

    def calling_param_kinds(self) -> Dict[str, str]:
        """Map calling parameter name -> coarse kind."""
        kinds: Dict[str, str] = {}
        for param in self.func.calling_params:
            if isinstance(param.type, SeqType):
                kinds[param.name] = "seq"
            elif isinstance(param.type, MatrixType):
                kinds[param.name] = "matrix"
            elif isinstance(param.type, HmmType):
                kinds[param.name] = "hmm"
            else:
                kinds[param.name] = "scalar"
        return kinds


def build_kernel(
    func: CheckedFunction,
    schedule: Schedule,
    prob_mode: str = "direct",
    time_var: str = "p",
    compute_window: bool = True,
) -> Kernel:
    """Compile ``func`` under ``schedule`` into a kernel.

    The loop nest is generated symbolically over ``ub_<dim>``
    parameters, so one kernel serves every problem size that shares
    the schedule. ``compute_window=False`` skips the sliding-window
    analysis — required for mutual-group members, whose dependences
    live in the *cross* descents (Section 9), not the self descents.
    """
    dims = func.dim_names
    if time_var in dims:
        time_var = "_p"
    bounds = [Affine.variable(UB_PREFIX + d) for d in dims]
    nest = generate_loops(
        dims, bounds, schedule.coefficients, time_var=time_var
    )
    body = lower_function(func, prob_mode)
    window = (
        window_size(schedule, function_plan(func).criteria)
        if compute_window
        else None
    )
    return Kernel(func, schedule, nest, body, window)
