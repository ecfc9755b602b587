"""Run one ``ReproServer`` for the ``serve_mixed`` workload.

Usage: ``python3 perfbench/serve_host.py WORKERS CACHE_DIR ARTIFACTS_DIR``

Binds an ephemeral port on 127.0.0.1 and prints one JSON line,
``{"port": ..., "pid": ...}``, once it accepts connections.  It exits
after a ``drain`` request completes, printing a last JSON line with
every worker pid the pool ever spawned so the caller can check that
none outlived the drain.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: admission is never the limit in this benchmark: saturation must show
#: as latency and backlog, not as shed requests
QUEUE_LIMIT = 100_000


async def main(workers: int, cache_dir: str, artifacts_dir: str) -> None:
    from repro.serve import ReproServer, ServerConfig

    server = ReproServer(
        ServerConfig(
            port=0,
            workers=workers,
            queue_limit=QUEUE_LIMIT,
            cache_dir=cache_dir,
            artifacts_dir=artifacts_dir,
        )
    )
    await server.start()
    print(json.dumps({"port": server.port, "pid": os.getpid()}), flush=True)
    await server.wait_drained()
    print(json.dumps({"spawned_pids": sorted(server.pool.spawned_pids)}), flush=True)


if __name__ == "__main__":
    asyncio.run(main(int(sys.argv[1]), sys.argv[2], sys.argv[3]))
