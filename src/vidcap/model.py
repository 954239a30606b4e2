"""The full captioner: video encoder, concept head, caption decoder."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .decoder import CaptionDecoder, DecoderConfig, GenerationRequest, Hypothesis, generate
from .encoder import ConceptHead, EncoderConfig, VideoEncoder
from .nn import Module
from .textproc import config_from_table
from .video import VideoClip


class CaptionModel(Module):
    """Holds the three trainable parts and a shared dropout stream.

    The concept head's sigmoid output doubles as the decoder's
    start-of-sequence input, so end-to-end training sends gradient into
    the head both through its own loss and through the captions.  Every
    part takes a leading batch axis; one clip is the batch of one.
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
        self.training = False
        self.dropout_rng = np.random.default_rng(seed + 1)

    def parameters(self) -> dict[str, Tensor]:
        return dict(self.named_parameters())

    def video_tokens(self, clips: Sequence[VideoClip]) -> Tensor:
        """(B, t, token_dim) tokens for B clips of one shape; in eval mode
        with no tape active, an array computed on arrays, wrapped once."""
        return self.encoder(clips, rng=self.dropout_rng, training=self.training)

    def concept_logits(self, tokens):
        """Logits of (B, t, token_dim) tokens: arrays in eval mode, or Tensors."""
        return self.concept_head.logits(tokens, rng=self.dropout_rng, training=self.training)

    def concept_probs(self, tokens):
        logits = self.concept_logits(tokens)
        return ad.sigmoid_kernel(logits) if isinstance(logits, np.ndarray) else ad.sigmoid(logits)

    def caption_logits(self, semantic: Tensor, token_ids, enc_tokens: Tensor) -> Tensor:
        """(B, n + 1, V) teacher-forced logits for B rows of n input ids."""
        hidden = self.decoder.embed_with_semantic_sos(semantic, token_ids)
        return self.decoder(hidden, enc_tokens, rng=self.dropout_rng, training=self.training)

    @contextmanager
    def _eval_mode(self):
        was_training, self.training = self.training, False
        try:
            yield
        finally:
            self.training = was_training

    def generate_for_tokens(self, tokens: np.ndarray, request: GenerationRequest) -> list[Hypothesis]:
        """Eval-mode generation for N clips from their (N, t, token_dim)
        encoder tokens, all N decoded in lockstep, one hypothesis each."""
        if request.max_len > self.dec_cfg.max_positions:
            raise ValueError(f"max length {request.max_len} exceeds {self.dec_cfg.max_positions} decoder positions")
        with self._eval_mode():
            step = self.decoder.step_fn(self.concept_probs(tokens), tokens)
            return generate(step, request, clips=len(tokens))

    def generate_for_clip(self, clip: VideoClip, request: GenerationRequest) -> Hypothesis:
        """Eval-mode generation for an already frame-selected clip: the
        batch of one."""
        with self._eval_mode():
            return self.generate_for_tokens(self.video_tokens([clip]).data, request)[0]

    def config_blob(self) -> dict:
        return {"encoder": asdict(self.enc_cfg), "decoder": asdict(self.dec_cfg)}


def model_from_config_blob(blob: dict, seed: int = 0) -> CaptionModel:
    """The model of a checkpoint's "model" table.  Its decoder table may hold the
    removed "adapter" setting: "auto", what every decoder now does, or nothing."""
    dec = blob["decoder"]
    if isinstance(dec, dict) and "adapter" in dec:
        if dec["adapter"] != "auto":
            raise ValueError(f"checkpoint decoder adapter mode {dec['adapter']!r} is no longer supported")
        dec = {k: v for k, v in dec.items() if k != "adapter"}
    enc = config_from_table(EncoderConfig, blob["encoder"], "checkpoint EncoderConfig")
    return CaptionModel(enc, config_from_table(DecoderConfig, dec, "checkpoint DecoderConfig"), seed=seed)
