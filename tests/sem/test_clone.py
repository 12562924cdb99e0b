"""The gather-scatter operator is stateless: one instance serves any
number of concurrent solves (PR 18's contract)."""

from __future__ import annotations

import threading

import numpy as np

from repro.sem import GatherScatter


class TestSharedGatherScatter:
    """The gather-scatter is stateless, so replicas share one instance."""

    def test_one_operator_serves_concurrent_threads(self, mesh3):
        gs = GatherScatter.from_mesh(mesh3)
        rng = np.random.default_rng(0)
        fields = rng.standard_normal((4,) + mesh3.l2g.shape)
        want = [gs.gather(f) for f in fields]
        got: dict[int, bool] = {}

        def loop(k: int) -> None:
            out = np.empty(gs.n_global)
            local = np.empty(gs.local_shape)
            ok = True
            for _ in range(200):
                ok &= np.array_equal(gs.gather(fields[k], out=out), want[k])
                gs.scatter(out, out=local)
                ok &= np.array_equal(local.reshape(-1), want[k][gs.l2g_flat])
            got[k] = ok

        threads = [threading.Thread(target=loop, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert got == {k: True for k in range(4)}
