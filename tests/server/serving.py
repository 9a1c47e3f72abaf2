"""A started partition server that closes its engine on exit.

A :class:`~repro.server.PartitionServer` closes only an engine it built
itself, so a test that hands it one must close that engine too, or the
engine's worker pool is left for the garbage collector to shut down in
whatever thread happens to allocate.
"""

from __future__ import annotations

from contextlib import asynccontextmanager

from repro.server import PartitionServer
from repro.service import PartitionEngine


@asynccontextmanager
async def serving(engine: PartitionEngine | None = None, **kwargs):
    """``PartitionServer(engine, **kwargs)``, started; on exit the server
    shuts down, then ``engine`` (a default one if ``None``) closes."""
    with engine if engine is not None else PartitionEngine() as engine:
        async with PartitionServer(engine, **kwargs) as server:
            yield server
