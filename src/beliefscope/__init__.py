"""Tree-network inference with deterministic relational nodes and temporal recognition."""

from .errors import (
    BeliefscopeError,
    EvidenceError,
    FrameInferenceError,
    ImpossibleEvidenceError,
    InvalidNetworkError,
    RuleSyntaxError,
    SpecSyntaxError,
    StateSpaceCapError,
    StreamValidationError,
)
from .network import (
    COLOUR_CLASSES,
    EvidenceSet,
    InstantiatedNetwork,
    Network,
    NetworkSpec,
    Node,
    NodeSpec,
    apply_evidence,
    network_diagnostics,
    network_spec_from_document,
    network_spec_to_document,
    parse_evidence,
    parse_network_spec,
    serialize_network_spec,
    validate_network,
)
from .propagation import (
    Beliefs,
    brute_force_beliefs,
    map_assignment,
    propagate,
)
from .relational import (
    Region,
    bind_features,
    eval_relation,
    parse_scene,
    relational_diagnostics,
    relationalize,
    scene_to_document,
    select_region,
)
from .temporal import (
    BeliefTrace,
    DynamicModel,
    Frame,
    FrameBelief,
    FrameStream,
    TemporalModel,
    build_dynamic_window,
    dynamic_trace,
    dynamic_windows,
    filter_frames,
    filter_stream,
    match_regions,
    parse_stream,
    semi_static_prior,
    stream_to_jsonl,
    window_spec,
)
from .endoscopy import (
    DEFAULT_PROBS,
    BuiltinModel,
    SCENARIOS,
    builtin_model,
    compile_rule,
    generate_stream,
)

__version__ = "0.1.0"
