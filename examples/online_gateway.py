"""Online serving through the gateway: closed-loop interactive clients.

Offline traces fix every arrival before the simulation starts; the
``ServingGateway`` instead accepts requests *while the system runs*, which
is what real frontends do.  This example simulates a pool of chat users in
closed loop: each user submits a request, waits for its completion (via the
gateway's completion callback), "thinks" for a moment, then sends a
follow-up to the same variant — arrival times therefore depend on the
system's own latency, something no pre-baked Trace can express.

Run:  python examples/online_gateway.py
"""

import numpy as np

from repro.hardware import GPUNode, node_from_name
from repro.serving import (EngineConfig, LLAMA_13B, ModelManager,
                           SchedulerConfig, ServingGateway, create_engine)

N_VARIANTS = 16
N_USERS = 24
TURNS_PER_USER = 4
THINK_TIME_S = 5.0


def main():
    rng = np.random.default_rng(0)
    node = GPUNode(node_from_name("a800", 4))
    manager = ModelManager(LLAMA_13B)
    manager.register_base("llama-13b")
    for i in range(N_VARIANTS):
        manager.register_delta(f"variant-{i:02d}", "llama-13b", 10.0)

    engine = create_engine(
        "deltazip", manager, node,
        scheduler_config=SchedulerConfig(max_batch_requests=32,
                                         max_concurrent_deltas=8),
        engine_config=EngineConfig(tp_degree=4))

    turns_left = {}        # request_id -> (user's variant, remaining turns)
    followups = []         # completions to turn into next-turn submissions

    gateway = ServingGateway(engine)
    gateway.add_completion_listener(followups.append)

    def submit_turn(variant, turns, arrival_s=None):
        prompt = int(rng.integers(16, 256))
        output = int(rng.integers(8, 128))
        handle = gateway.submit(variant, prompt, output,
                                arrival_s=arrival_s)
        turns_left[handle.id] = (variant, turns)

    # session start: every user opens a conversation with their variant
    for u in range(N_USERS):
        variant = f"variant-{u % N_VARIANTS:02d}"
        submit_turn(variant, TURNS_PER_USER - 1,
                    arrival_s=float(rng.uniform(0.0, 30.0)))

    while gateway.unfinished > 0:
        if not gateway.step():
            break
        # completed turns trigger the user's next message after a pause
        for record in followups:
            variant, turns = turns_left.pop(record.request_id)
            if turns > 0:
                think = float(rng.exponential(THINK_TIME_S))
                submit_turn(variant, turns - 1,
                            arrival_s=record.finish_s + think)
        followups.clear()

    result = gateway.result()
    print(f"served {result.n_requests} chat turns from {N_USERS} users "
          f"({result.makespan_s:.0f}s makespan)")
    print(f"  throughput        {result.throughput_rps():.2f} req/s")
    print(f"  mean TTFT         {result.mean_ttft_s():.2f} s")
    print(f"  mean E2E latency  {result.mean_e2e_latency_s():.2f} s")
    print(f"  P90 E2E latency   {result.percentile_e2e_s(90):.2f} s")
    stats = result.stats
    print(f"  engine: {stats.iterations} iterations, "
          f"{stats.swap_ins} delta swap-ins, "
          f"mean batch {stats.mean_batch_size:.1f}")


if __name__ == "__main__":
    main()
