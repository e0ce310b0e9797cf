"""Tree-network inference with deterministic relational nodes and temporal recognition.

Public names are imported from their modules on first use, so a command compiles
and runs only the modules it needs: ``validate`` and ``compile`` load neither numpy
nor any module past ``network`` and ``models``, and ``infer`` on a network spec never
loads the relational, temporal or endoscopy modules.  numpy is loaded only by
``check``'s enumeration oracle: a region's mask is a Python int bitset.
"""

import importlib

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

#: the public names of each module
_EXPORTS = {
    "network": ("COLOUR_CLASSES", "EvidenceSet", "InstantiatedNetwork", "Network", "NetworkSpec",
                "Node", "NodeSpec", "apply_evidence", "network_diagnostics",
                "network_spec_from_document", "network_spec_to_document", "parse_evidence",
                "parse_network_spec", "serialize_network_spec", "validate_network"),
    "propagation": ("Beliefs", "brute_force_beliefs", "map_assignment", "propagate"),
    "relational": ("Region", "bind_features", "eval_relation", "parse_scene",
                   "relational_diagnostics", "relationalize", "scene_to_document", "select_region"),
    "models": ("DEFAULT_PROBS", "BuiltinModel", "DynamicModel", "TemporalModel", "builtin_model",
               "compile_rule", "window_spec"),
    "temporal": ("BeliefTrace", "Frame", "FrameBelief", "FrameStream", "build_dynamic_window",
                 "dynamic_trace", "dynamic_windows", "filter_frames", "filter_stream",
                 "match_regions", "parse_stream", "semi_static_prior", "stream_to_jsonl"),
    "endoscopy": ("SCENARIOS", "generate_stream"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
