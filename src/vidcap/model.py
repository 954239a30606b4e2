"""The full captioner: video encoder, concept head, caption decoder."""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .decoder import CaptionDecoder, DecoderConfig, GenerationRequest, Hypothesis, generate
from .encoder import ConceptHead, EncoderConfig, VideoEncoder
from .nn import MLP_RATIO, Module
from .optim import flatten
from .textproc import config_from_table
from .video import VideoClip


class CaptionModel(Module):
    """Holds the three trainable parts and one parameter vector, no run state.

    The concept head's sigmoid output doubles as the decoder's
    start-of-sequence input, so end-to-end training sends gradient into
    the head both through its own loss and through the captions.  Every
    part takes a leading batch axis; one clip is the batch of one.
    Callers run the encoder and the concept head directly; the head and
    the decoder draw dropout from the rng they are handed (None is eval
    mode), so the model holds nothing that differs between training and
    inference.
    """

    def __init__(self, enc_cfg: EncoderConfig, dec_cfg: DecoderConfig, seed: int = 0):
        if dec_cfg.concept_dim != enc_cfg.concept_count:
            raise ValueError(
                f"decoder concept_dim {dec_cfg.concept_dim} must match encoder concept_count {enc_cfg.concept_count}")
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

    def concept_probs(self, tokens):
        return ad.sigmoid(self.concept_head.logits(tokens))

    def caption_logits(self, semantic: Tensor, token_ids, enc_tokens: Tensor, rng=None) -> Tensor:
        """(B, n + 1, V) teacher-forced logits for B rows of n input ids."""
        hidden = self.decoder.embed_with_semantic_sos(semantic, token_ids)
        return self.decoder(hidden, enc_tokens, rng=rng)

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
        return self.generate_for_tokens(self.encoder([clip]).data, request)[0]

    def config_blob(self) -> dict:
        return {"encoder": asdict(self.enc_cfg), "decoder": asdict(self.dec_cfg)}


# keys that a checkpoint's "model" table may still hold from when they were
# settings, each with the one value that loads: the one every model now uses
_RETIRED_KEYS = {
    EncoderConfig: {"mlp_ratio": MLP_RATIO, "qkv_bias": True, "hidden_dropout": 0.0, "attn_dropout": 0.0,
                    "layer_norm_eps": 1e-12},
    DecoderConfig: {"mlp_ratio": MLP_RATIO, "layer_norm_eps": 1e-12, "adapter": "auto"},
}


def model_from_config_blob(blob: dict) -> CaptionModel:
    """The model of a checkpoint's "model" table, whose encoder and decoder
    tables may hold _RETIRED_KEYS at their values."""
    configs = []
    for cls, part in ((EncoderConfig, "encoder"), (DecoderConfig, "decoder")):
        table, what, retired = blob[part], f"checkpoint {cls.__name__}", _RETIRED_KEYS[cls]
        if isinstance(table, dict):
            for key, want in retired.items():
                got = table.get(key, want)
                # == alone would take false for 0.0 or true for 1
                if got != want or isinstance(got, bool) != isinstance(want, bool):
                    raise ValueError(f"{what} key {key!r} is retired and loads only as {want!r}, got {got!r}")
            table = {k: v for k, v in table.items() if k not in retired}
        configs.append(config_from_table(cls, table, what))
    return CaptionModel(*configs)
