"""Simulation-as-a-service: the ``repro serve`` HTTP/WebSocket surface.

Stdlib-only (asyncio + sockets) — the ``repro[serve]`` extra exists as
an installation marker but pins nothing, so the server runs anywhere
the core package does.  Every request is one
versioned :class:`~repro.jobspec.JobSpec`; see
:mod:`repro.serve.server` for the endpoint contract.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".client": ("ServeClient",),
    ".runner": ("JobControl", "execute_jobspec", "spawn_seeds"),
    ".server": ("Job", "ReproServer", "serve_forever"),
})
