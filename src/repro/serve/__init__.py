"""Simulation-as-a-service: the ``repro serve`` HTTP/WebSocket surface.

Stdlib-only (asyncio + sockets) — the ``repro[serve]`` extra exists as
an installation marker but pins nothing, so the server runs anywhere
the core package does.  Every request is one
versioned :class:`~repro.jobspec.JobSpec`; see
:mod:`repro.serve.server` for the endpoint contract.
"""

from .client import ServeClient
from .runner import JobControl, execute_jobspec, spawn_seeds
from .server import Job, ReproServer, serve_forever

__all__ = [
    "Job",
    "JobControl",
    "ReproServer",
    "ServeClient",
    "execute_jobspec",
    "serve_forever",
    "spawn_seeds",
]
