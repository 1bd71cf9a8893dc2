"""Evaluation configuration: the paper's two language "dials".

The unified SQL++ definition exposes two orthogonal switches:

* **Typing mode** (paper, Section IV): in ``permissive`` mode a dynamic
  type error (``2 * 'a'``, navigation into a scalar, a function applied
  to wrongly-typed input) produces ``MISSING`` so that processing of
  "healthy" data continues; in ``strict`` mode ("stop-on-error") the same
  situation raises :class:`~repro.errors.TypeCheckError`.

* **SQL-compatibility flag** (paper, Section I): when on, SQL sugar is
  honoured — plain ``SELECT`` subqueries coerce by context, SQL aggregate
  functions rewrite over groups, ``COALESCE``-class expressions treat a
  ``MISSING`` input like ``NULL`` — so existing SQL queries behave
  identically.  When off, the language is the fully composable SQL++
  Core: ``SELECT`` is pure sugar for ``SELECT VALUE`` and no implicit
  coercion ever happens.

Besides the two dials, :class:`EvalConfig` holds one switch that must
not change any answer — ``optimize``, engine or oracle — and the
resource limits.  How the engine runs a query (which semantic rewrites
fire, which blocks run in the executor's columns or rows mode) is its
own decision, never a setting: each choice must return what the oracle
returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.datamodel.values import MISSING
from repro.errors import TypeCheckError

PERMISSIVE = "permissive"
STRICT = "strict"


@dataclass(frozen=True)
class EvalConfig:
    """Immutable evaluation settings threaded through the evaluator.

    ``sql_compat`` defaults to True (the adoption-friendly mode the paper
    recommends for SQL users); ``typing_mode`` defaults to permissive
    (the flexible mode the paper motivates for semistructured data).
    """

    typing_mode: str = PERMISSIVE
    sql_compat: bool = True
    #: Engine or oracle.  On (the default), the engine runs the query:
    #: the semantic rewrite registry (docs/REWRITER.md), compiled
    #: closures, physical planning (hash equi-joins, predicate pushdown,
    #: right-side materialization — see docs/PLANNER.md) and the one
    #: executor in its columns and rows modes.  ``optimize=False`` runs the
    #: executable reference semantics instead — the eager tree-walking
    #: interpreter of :mod:`repro.core.reference`, which shares no
    #: execution code with the engine; results must be identical
    #: either way.
    optimize: bool = True
    #: Resource limits (docs/OBSERVABILITY.md), enforced cooperatively by
    #: the evaluator; exceeding one raises
    #: :class:`~repro.errors.ResourceExhausted` instead of hanging.
    #: ``None`` disables a limit.
    timeout_s: Optional[float] = None
    max_rows: Optional[int] = None
    max_recursion: Optional[int] = None

    def __post_init__(self) -> None:
        if self.typing_mode not in (PERMISSIVE, STRICT):
            raise ValueError(
                f"typing_mode must be {PERMISSIVE!r} or {STRICT!r}, "
                f"got {self.typing_mode!r}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.max_rows is not None and self.max_rows < 0:
            raise ValueError("max_rows must be non-negative")
        if self.max_recursion is not None and self.max_recursion < 1:
            raise ValueError("max_recursion must be at least 1")

    @property
    def has_limits(self) -> bool:
        """Whether any resource limit is configured."""
        return (
            self.timeout_s is not None
            or self.max_rows is not None
            or self.max_recursion is not None
        )

    @property
    def is_permissive(self) -> bool:
        return self.typing_mode == PERMISSIVE

    def type_error(self, message: str):
        """Signal a dynamic type error under the current typing mode.

        Returns ``MISSING`` in permissive mode; raises
        :class:`TypeCheckError` in strict mode.  Callers should
        ``return config.type_error(...)`` so both behaviours work.
        """
        if self.is_permissive:
            return MISSING
        raise TypeCheckError(message)


#: The default configuration: SQL-compatible, permissive typing.
DEFAULT_CONFIG = EvalConfig()

#: The fully composable Core with strict "stop-on-error" typing.
STRICT_CORE_CONFIG = EvalConfig(typing_mode=STRICT, sql_compat=False)
