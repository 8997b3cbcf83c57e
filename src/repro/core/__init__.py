"""Core layer: the paper's primary contribution.

This subpackage assembles the RBN substrate into the binary radix
sorting multicast network:

* the multicast model (:mod:`~repro.core.multicast`,
  :mod:`~repro.core.message`);
* routing tags, tag trees and the SEQ wire format
  (:mod:`~repro.core.tags`, :mod:`~repro.core.tagtree`);
* the binary splitting network (:mod:`~repro.core.bsn`);
* the full BRSMN (:mod:`~repro.core.brsmn`) and its feedback
  implementation (:mod:`~repro.core.feedback`);
* delivery verification (:mod:`~repro.core.verification`) and the
  one-call API (:mod:`~repro.core.routing`).
"""

from .admission import (
    Request,
    ScheduleOutcome,
    conflicts,
    frame_lower_bound,
    route_requests,
    schedule_frames,
)
from .brsmn import (
    BRSMN,
    BatchRoutingResult,
    RoutingResult,
    deliver_final_switch,
    inject_messages,
)
from .bsn import BinarySplittingNetwork, BsnFrameStats, make_bsn_cells
from .config import NetworkConfig
from .fastplan import (
    FramePlan,
    PlanCache,
    compile_frame_plan,
    compile_frame_plans,
    compile_level_gather,
)
from .feedback import FeedbackBRSMN, FeedbackRoutingResult, PassRecord
from .message import Message
from .multicast import MulticastAssignment, paper_example_assignment
from .pipeline_sim import (
    SegmentStats,
    StreamReport,
    find_min_period,
    simulate_stream,
)
from .routing import (
    build_network,
    route_multicast,
    route_resilient,
)
from .tags import (
    Tag,
    decode_tag,
    encode_tag,
    format_tag_string,
    parse_tag_string,
)
from .tagtree import (
    TagTree,
    TagTreeNode,
    merge_sequences,
    order_sequence,
    split_stream,
    tag_of_destinations,
)
from .verification import (
    VerificationReport,
    verify_delivery,
    verify_edge_disjoint,
    verify_result,
)

__all__ = [
    "Request",
    "ScheduleOutcome",
    "conflicts",
    "frame_lower_bound",
    "route_requests",
    "schedule_frames",
    "BRSMN",
    "BatchRoutingResult",
    "RoutingResult",
    "deliver_final_switch",
    "inject_messages",
    "BinarySplittingNetwork",
    "BsnFrameStats",
    "make_bsn_cells",
    "NetworkConfig",
    "FramePlan",
    "PlanCache",
    "compile_frame_plan",
    "compile_frame_plans",
    "compile_level_gather",
    "FeedbackBRSMN",
    "FeedbackRoutingResult",
    "PassRecord",
    "Message",
    "MulticastAssignment",
    "paper_example_assignment",
    "SegmentStats",
    "StreamReport",
    "find_min_period",
    "simulate_stream",
    "build_network",
    "route_multicast",
    "route_resilient",
    "Tag",
    "decode_tag",
    "encode_tag",
    "format_tag_string",
    "parse_tag_string",
    "TagTree",
    "TagTreeNode",
    "merge_sequences",
    "order_sequence",
    "split_stream",
    "tag_of_destinations",
    "VerificationReport",
    "verify_delivery",
    "verify_edge_disjoint",
    "verify_result",
]
