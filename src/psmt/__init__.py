"""Perfectly secure message transmission over n = 2t+1 channels.

Library layout:

- gf: exact arithmetic in F_p and F_{p^m}, plus linear algebra over either.
- mds: Reed-Solomon codes, syndromes, unique decoding, privacy pairs.
- pseudobasis: pseudo-basis selection and error recovery from syndromes.
- broadcast: repetition and generalized (m-fold) broadcast over n channels.
- channels: the channel session for both adversary models (t channels, or t
  eavesdrop and tamper vectors), transcripts, cost ledgers.
- protocols: the two-round transmission protocols and the privacy audit.
- rankmetric: Gabidulin codes, the rank broadcast, generalized adversaries
  and RankParams, the params of the rank setting.
- cli: command line front end (run / audit / bench).

The params choose the setting: SessionParams for the Hamming one, RankParams
for the rank one.  run_basic (alias run_rank_protocol) and privacy_audit
serve both; run_improved has no rank variant yet.
"""

from .gf import field, field_of_order, PrimeField, ExtensionField
from .mds import ReedSolomonCode, build_privacy_pair
from .channels import ChannelSession
from .protocols import SessionParams, run_basic, run_improved, privacy_audit
from .rankmetric import (
    GabidulinCode,
    RankParams,
    run_rank_protocol,
)

__all__ = [
    "field",
    "field_of_order",
    "PrimeField",
    "ExtensionField",
    "ReedSolomonCode",
    "build_privacy_pair",
    "ChannelSession",
    "SessionParams",
    "run_basic",
    "run_improved",
    "privacy_audit",
    "GabidulinCode",
    "RankParams",
    "run_rank_protocol",
]
