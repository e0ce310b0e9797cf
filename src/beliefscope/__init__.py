"""Tree-network inference with deterministic relational nodes and temporal recognition.

Public names are imported from their modules on first use, so a command compiles
and runs only the modules it needs: ``validate`` and ``compile`` load no module past
``network`` and ``models``, and ``infer`` on a network spec never loads the relational,
temporal or endoscopy modules.  No module imports numpy, and the package has no runtime
dependency: a region's mask is a Python int bitset, ``check`` compares the propagation
kernel with the pure-Python tree witness of :mod:`beliefscope.witness`, and the
joint-enumeration oracle ``brute_force_beliefs`` sums a joint table of Python floats.
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

#: the public names of each module, each listed under the module that defines it
_EXPORTS = {
    "network": ("COLOUR_CLASSES", "EvidenceSet", "InstantiatedNetwork", "Network", "NetworkSpec",
                "Node", "NodeSpec", "apply_evidence", "network_diagnostics",
                "network_spec_from_document", "network_spec_to_document", "relational_diagnostics",
                "validate_network"),
    "propagation": ("Beliefs", "brute_force_beliefs", "map_assignment", "propagate"),
    "relational": ("Region", "eval_relation", "relationalize", "scene_to_document", "select_region"),
    "models": ("DEFAULT_PROBS", "BuiltinModel", "DynamicModel", "TemporalModel", "builtin_model",
               "compile_rule", "window_spec"),
    "temporal": ("BeliefTrace", "Frame", "FrameBelief", "FrameStream", "build_dynamic_window",
                 "dynamic_trace", "filter_stream", "match_regions", "parse_stream", "stream_to_jsonl"),
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
