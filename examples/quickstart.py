#!/usr/bin/env python
"""Quickstart: route the paper's worked example through an 8x8 BRSMN.

Reproduces Fig. 2 of Yang & Wang's "A New Self-Routing Multicast
Network": the multicast assignment

    { {0,1}, {}, {3,4,7}, {2}, {}, {}, {}, {5,6} }

is self-routed through the binary radix sorting multicast network; the
script prints the assignment, each message's routing-tag sequence, a
stage-by-stage trace, and the verified delivery map.

Run:  python examples/quickstart.py
"""

from repro import (
    BRSMN,
    NetworkConfig,
    TagTree,
    TracingObserver,
    paper_example_assignment,
    verify_result,
)
from repro.core.tags import format_tag_string
from repro.viz import render_assignment, render_delivery, render_trace


def main() -> None:
    assignment = paper_example_assignment()
    print(render_assignment(assignment))
    print()

    # The self-routing tag sequences (Section 7.1) each message carries.
    print("routing tag sequences (SEQ, eq. 12):")
    for i, dests in enumerate(assignment):
        if dests:
            seq = TagTree.from_destinations(assignment.n, dests).to_sequence()
            print(f"  input {i}: {format_tag_string(seq)}")
    print()

    # Build the network from a config object, with an observer attached,
    # and route in self-routing mode with tracing.
    observer = TracingObserver()
    network = BRSMN(NetworkConfig(assignment.n, observer=observer))
    result = network.route(assignment, mode="selfrouting", collect_trace=True)

    print(render_trace(result.trace, max_stages=12))
    print()
    print(render_delivery(result.outputs))
    print()

    report = verify_result(result)
    print(f"verified: {report.ok} ({report.deliveries} deliveries)")
    print(f"alpha splits performed by BSN levels: {result.total_splits}")
    print(f"2x2 switch operations: {result.switch_ops}")
    print(
        f"network: {network.switch_count} switches, depth {network.depth} stages"
    )

    # The observer recorded the frame's lifecycle: per-level spans with
    # wall-clock profiling, straight off the routing pass.
    timeline = observer.timelines()[0]
    print("\nobserved per-level profile:")
    for span in timeline.levels:
        f = span.fields
        print(
            f"  level {f['level']} (size {f['size']:2d}, "
            f"{f['blocks']} block(s)): {f['splits']} splits, "
            f"{f['switch_ops']} switch ops, {f['duration_ns'] / 1e3:.0f} us"
        )
    print(f"end-to-end frame latency: {timeline.duration_ns / 1e3:.0f} us")


if __name__ == "__main__":
    main()
