"""The full captioner: video encoder, concept head, caption decoder."""

from __future__ import annotations

from dataclasses import asdict
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .decoder import CaptionDecoder, DecoderConfig, GenerationRequest, Hypothesis, generate
from .encoder import ConceptHead, EncoderConfig, VideoEncoder
from .nn import Module
from .optim import flatten
from .textproc import config_from_table
from .video import VideoClip


class CaptionModel(Module):
    """Holds the three trainable parts and one parameter vector, no run state.

    The concept head's sigmoid output doubles as the decoder's
    start-of-sequence input, so end-to-end training sends gradient into
    the head both through its own loss and through the captions.  Every
    part takes a leading batch axis; one clip is the batch of one.  Each
    forward draws dropout from the rng it is handed; None is eval mode.
    """

    def __init__(self, enc_cfg: EncoderConfig, dec_cfg: DecoderConfig, seed: int = 0):
        if dec_cfg.concept_dim != enc_cfg.concept_count:
            raise ValueError("decoder concept width must match the concept head")
        if dec_cfg.hidden != enc_cfg.token_dim:
            raise ValueError(f"decoder hidden {dec_cfg.hidden} must match encoder token_dim {enc_cfg.token_dim}")
        init_rng = np.random.default_rng(seed)
        self.enc_cfg = enc_cfg
        self.dec_cfg = dec_cfg
        self.encoder = VideoEncoder(enc_cfg, init_rng)
        self.concept_head = ConceptHead(enc_cfg, init_rng)
        self.decoder = CaptionDecoder(dec_cfg, init_rng)
        # flat is one float64 vector of every parameter, sorted by name (the
        # params.bin order), and each parameter's data views its stretch of
        # it for the model's whole life, so nothing may rebind it; layout
        # holds (name, offset in flat, Tensor) in that order, as a tuple,
        # which the parameter walk does not enter
        params = sorted(self.named_parameters())
        self.flat = flatten([p for _, p in params])
        offsets = np.cumsum([0] + [p.data.size for _, p in params]).tolist()
        self.layout = tuple((name, offset, p) for (name, p), offset in zip(params, offsets))

    def parameters(self) -> dict[str, Tensor]:
        return {name: p for name, _, p in self.layout}

    def video_tokens(self, clips: Sequence[VideoClip], rng=None) -> Tensor:
        """(B, t, token_dim) tokens for B clips of one shape; in eval mode
        with no tape active, an array computed on arrays, wrapped once."""
        return self.encoder(clips, rng=rng, training=rng is not None)

    def concept_logits(self, tokens, rng=None):
        """Logits of (B, t, token_dim) tokens: arrays in eval mode, or Tensors."""
        return self.concept_head.logits(tokens, rng=rng, training=rng is not None)

    def concept_probs(self, tokens):
        return ad.sigmoid(self.concept_logits(tokens))

    def caption_logits(self, semantic: Tensor, token_ids, enc_tokens: Tensor, rng=None) -> Tensor:
        """(B, n + 1, V) teacher-forced logits for B rows of n input ids."""
        hidden = self.decoder.embed_with_semantic_sos(semantic, token_ids)
        return self.decoder(hidden, enc_tokens, rng=rng, training=rng is not None)

    def generate_for_tokens(self, tokens: np.ndarray, request: GenerationRequest) -> list[Hypothesis]:
        """Eval-mode generation for N clips from their (N, t, token_dim)
        encoder tokens, all N decoded in lockstep, one hypothesis each."""
        self.check_request(request)
        step = self.decoder.step_fn(self.concept_probs(tokens), tokens)
        return generate(step, request, clips=len(tokens))

    def check_request(self, request: GenerationRequest) -> None:
        """Refuse a request for longer captions than the decoder has positions."""
        if request.max_len > self.dec_cfg.max_positions:
            raise ValueError(f"max length {request.max_len} exceeds {self.dec_cfg.max_positions} decoder positions")

    def generate_for_clip(self, clip: VideoClip, request: GenerationRequest) -> Hypothesis:
        """Eval-mode generation for an already frame-selected clip: the
        batch of one."""
        return self.generate_for_tokens(self.video_tokens([clip]).data, request)[0]

    def config_blob(self) -> dict:
        return {"encoder": asdict(self.enc_cfg), "decoder": asdict(self.dec_cfg)}


def model_from_config_blob(blob: dict) -> CaptionModel:
    """The model of a checkpoint's "model" table.  Its decoder table may hold the
    removed "adapter" setting: "auto", what every decoder now does, or nothing."""
    dec = blob["decoder"]
    if isinstance(dec, dict) and "adapter" in dec:
        if dec["adapter"] != "auto":
            raise ValueError(f"checkpoint decoder adapter mode {dec['adapter']!r} is no longer supported")
        dec = {k: v for k, v in dec.items() if k != "adapter"}
    enc = config_from_table(EncoderConfig, blob["encoder"], "checkpoint EncoderConfig")
    return CaptionModel(enc, config_from_table(DecoderConfig, dec, "checkpoint DecoderConfig"))
