"""Persistent, shared multiprocessing executor for sharded runs.

Before this module every :func:`repro.engine.runner.run_experiment` and
:func:`repro.perf.backend.run_performance_grid` call built and tore
down its own ``multiprocessing.Pool`` — a fork (or, worse, a spawn and
full re-import of numpy + repro) per experiment cell.  A sweep over
dozens of cells paid that startup tax dozens of times.

:class:`SharedExecutor` is the replacement: one lazily created,
reusable pool with an **explicit** start method.  The engine and the
performance backend both accept one, and :class:`repro.api.Session`
owns one for its whole life, so every cell of a multi-experiment sweep
reuses the same warm workers.  Worker processes additionally keep
per-spec decoder caches (:func:`functools.lru_cache` on the worker-side
entry points), so repeated cells skip lookup-table construction too.

Sharing a pool is safe because the work items are pure functions of
their payloads: the engine's block-keyed RNG makes results independent
of which worker runs which chunk, so executor reuse — like worker
count and chunk size — cannot change any result.

The start method is always an explicit, pinned choice.  It resolves,
in order: an explicit argument, the ``REPRO_MP_CONTEXT`` environment
variable, ``"fork"`` on Linux, then the platform's own default
(spawn on macOS/Windows — fork is unsafe there once Accelerate /
Objective-C threads exist, so it is never silently imposed).
Everything shipped to workers (specs, scenario models, protection
configs) is a small picklable value object and the worker entry points
are module-level functions, so the engine is spawn-safe by
construction; a dedicated test pins the spawn-vs-serial bit-identity.

One standard Python caveat applies under ``"spawn"`` (and
``"forkserver"``): children re-import the driver's ``__main__``
module, so a *script* that fans out must guard its entry point with
``if __name__ == "__main__":`` — an unguarded script makes the
children re-execute the top level and the stock ``Pool`` machinery
hangs re-spawning them.  Imported library code, pytest and the
``python -m repro`` CLI are already safe.
"""

from __future__ import annotations

import atexit
import contextlib
import logging
import multiprocessing
import os
import sys
import threading
from multiprocessing.context import BaseContext
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.obs import emit

__all__ = ["SharedExecutor", "executor_scope", "resolve_mp_context", "MP_CONTEXT_ENV"]

_log = logging.getLogger(__name__)

#: Environment variable naming the default start method ("fork",
#: "spawn" or "forkserver") when no explicit context is passed.
MP_CONTEXT_ENV = "REPRO_MP_CONTEXT"


def resolve_mp_context(
    mp_context: "str | BaseContext | None" = None,
) -> BaseContext:
    """Resolve an explicit multiprocessing context.

    ``mp_context`` may be a start-method name, an already-built
    context, or ``None`` — which consults ``$REPRO_MP_CONTEXT``, then
    prefers ``"fork"`` on Linux (cheapest; shares the imported
    package), and otherwise pins the platform's default start method
    (macOS switched its default to spawn because forking after
    Accelerate/Objective-C threads start is unsafe — that choice is
    deliberately respected, not overridden).  Unknown names raise
    ``ValueError`` eagerly, not inside a worker.
    """
    if isinstance(mp_context, BaseContext):
        return mp_context
    name = mp_context
    if name is None:
        name = os.environ.get(MP_CONTEXT_ENV) or None
    if name is None:
        methods = multiprocessing.get_all_start_methods()
        if sys.platform.startswith("linux") and "fork" in methods:
            name = "fork"
        else:
            name = multiprocessing.get_context().get_start_method()
    return multiprocessing.get_context(name)


class SharedExecutor:
    """A lazily created, reusable worker pool with an explicit context.

    Parameters
    ----------
    workers:
        Process count.  1 never creates a pool: ``map`` runs inline,
        so a single-worker executor is free to construct and share.
    mp_context:
        Start method (name or context object); see
        :func:`resolve_mp_context` for the default resolution.

    The underlying pool is created on the first parallel :meth:`map`
    and reused until :meth:`close`; the executor is also a context
    manager, and closing is idempotent.
    """

    def __init__(
        self,
        workers: int = 1,
        mp_context: "str | BaseContext | None" = None,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        self._workers = workers
        self._context = resolve_mp_context(mp_context)
        self._pool = None
        # Pool lifecycle is guarded by a lock: the experiment service
        # drives one executor from several threads, so pool creation and
        # close() must be race-free (and close() idempotent under
        # concurrent callers).
        self._lock = threading.Lock()
        self._atexit_registered = False

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self._workers

    @property
    def start_method(self) -> str:
        """The resolved start method name ("fork", "spawn", ...)."""
        return self._context.get_start_method()

    @property
    def started(self) -> bool:
        """Whether the worker pool currently exists."""
        return self._pool is not None

    # ------------------------------------------------------------------
    def map(
        self, func: Callable[[Any], Any], payloads: Iterable[Any]
    ) -> "Sequence[Any]":
        """Apply ``func`` to every payload, preserving order.

        Runs inline for a single worker or a single payload (matching
        the historical runner behavior); otherwise fans out over the
        persistent pool, creating it on first use.
        """
        items = list(payloads)
        if self._workers == 1 or len(items) <= 1:
            emit(
                "executor.map",
                logger=_log,
                items=len(items),
                workers=self._workers,
                inline=True,
            )
            return [func(item) for item in items]
        with self._lock:
            if self._pool is None:
                emit(
                    "executor.pool.start",
                    logger=_log,
                    level=logging.INFO,
                    workers=self._workers,
                    start_method=self.start_method,
                )
                self._pool = self._context.Pool(processes=self._workers)
                if not self._atexit_registered:
                    # Worker processes must never outlive an owner that
                    # exits without close(): the hook reaps them at
                    # interpreter shutdown (and is unregistered again
                    # once close() has run, so closed executors don't
                    # pile up references in the atexit table).
                    atexit.register(self.close)
                    self._atexit_registered = True
            pool = self._pool
        emit(
            "executor.map",
            logger=_log,
            items=len(items),
            workers=self._workers,
            inline=False,
        )
        return pool.map(func, items)

    def close(self) -> None:
        """Tear down the pool (if any); the executor stays reusable.

        Idempotent and safe under concurrent callers: exactly one
        caller tears the pool down, the rest return immediately.
        """
        with self._lock:
            pool, self._pool = self._pool, None
            if self._atexit_registered:
                with contextlib.suppress(Exception):  # interpreter teardown
                    atexit.unregister(self.close)
                self._atexit_registered = False
        if pool is not None:
            emit(
                "executor.pool.close",
                logger=_log,
                level=logging.INFO,
                workers=self._workers,
            )
            pool.terminate()
            pool.join()

    # ------------------------------------------------------------------
    def __enter__(self) -> "SharedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown path
        with contextlib.suppress(Exception):
            self.close()

    def __repr__(self) -> str:
        state = "started" if self.started else "idle"
        return (
            f"SharedExecutor(workers={self._workers}, "
            f"context={self.start_method!r}, {state})"
        )


@contextlib.contextmanager
def executor_scope(
    executor: "SharedExecutor | None",
    workers: int,
    mp_context: "str | BaseContext | None" = None,
) -> Iterator[SharedExecutor]:
    """``executor`` itself, or a transient :class:`SharedExecutor` of
    ``workers`` processes that is closed on exit.

    A run enters this once around all of its fan-outs, so it starts at
    most one transient pool however many rounds or chunks it maps.
    """
    if executor is not None:
        yield executor
        return
    with SharedExecutor(workers=workers, mp_context=mp_context) as transient:
        yield transient
