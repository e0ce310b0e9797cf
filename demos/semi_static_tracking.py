"""
Semi-static recognition: yesterday's posterior is today's prior
===============================================================

When consecutive images are nearly identical, the posterior for an object in
one frame should shape its prior in the next.  Each step mixes the previous
posterior through a persistence transition, multiplies in the static prior,
and then conditions on the current frame's evidence.
"""

from beliefscope import (
    Frame,
    FrameStream,
    TemporalModel,
    builtin_model,
    filter_stream,
    generate_stream,
)

model = builtin_model("lumen_tracker").model
print(f"hypothesis '{model.hypothesis}', transition rows {[list(row) for row in model.transition]}, "
      f"mode '{model.mode}'")

# A dark region persists for six frames, then vanishes for six more.
dark_frames = generate_stream("surround_scene", 6).frames  # the blob is dark
gone = tuple(Frame(i, round(i * 0.04, 6)) for i in range(6, 12))
stream = FrameStream(dark_frames + gone, 0.04)

trace = filter_stream(model, stream)
print("\nframe  P(lumen)  effective prior  bound region")
for fb in trace.frames:
    print(f"{fb.index:5d}  {fb.posterior[0]:.4f}    {fb.effective_prior[0]:.4f}"
          f"           {fb.bindings['dark_region']}")

# The belief rises while the evidence persists and decays once it is gone,
# rather than snapping back to the static prior: that is the rollover at work.

# The alternative 'filter' mode drops the extra static-prior factor and is
# exact forward filtering over the equivalent unrolled chain.  With a uniform
# static prior the two coincide; otherwise they differ.
skewed = model.per_frame.with_root_prior([0.7, 0.3])
for mode in ("paper", "filter"):
    variant = TemporalModel(skewed, model.transition, mode)
    tail = filter_stream(variant, stream).frames[-1].posterior[0]
    print(f"mode={mode:6s} with a 0.7 static prior: final P(lumen) = {tail:.4f}")

print("\nJSONL trace of the first three frames:")
print("\n".join(trace.to_jsonl().splitlines()[:3]))
