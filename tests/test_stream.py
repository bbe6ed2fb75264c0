"""The block-drawn uniform stream: same floats, same Generator state, any exit."""
import numpy as np
import pytest

from emodecode.baselines import SamplingConfig, SBBSConfig, cs_decode, sbbs_decode, top_p_decode
from emodecode.emotion import EmotionQuadrant
from emodecode.models.base import Policy
from emodecode.models.sampling import BLOCK, uniform_stream
from emodecode.puct import DecodeConfig, decode_piece
from emodecode.remi.tokens import VOCAB

from reference import ScriptedRNG


class OneAtATime:
    """A Generator behind the bare ``.random()`` duck type, counting draws."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self.rng.random()


class Failing:
    """Delegates to ``inner`` and raises on call number ``calls + 1`` of ``method``."""

    def __init__(self, inner, method: str, calls: int):
        self.inner, self.method, self.calls = inner, method, calls

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name != self.method:
            return attr

        def counted(*args, **kwargs):
            if self.calls == 0:
                raise RuntimeError(f"{name} failed")
            self.calls -= 1
            return attr(*args, **kwargs)

        return counted


class TestUniformStream:
    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
    def test_same_floats_and_final_state_as_single_draws(self, n):
        ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
        with uniform_stream(ours) as stream:
            values = [stream.random() for _ in range(n)]
        assert values == [theirs.random() for _ in range(n)]
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.random() == theirs.random()

    def test_exit_by_exception_restores_the_state(self):
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        with pytest.raises(KeyError):
            with uniform_stream(ours) as stream:
                for _ in range(BLOCK + 5):
                    stream.random()
                raise KeyError("stop")
        for _ in range(BLOCK + 5):
            theirs.random()
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_other_objects_are_read_one_draw_at_a_time(self):
        scripted = ScriptedRNG([0.25, 0.5, 0.75])
        with uniform_stream(scripted) as stream:
            assert stream is scripted
            assert stream.random() == 0.25
        assert scripted.consumed == 1


class EndlessPolicy(Policy):
    """``inner`` with no mass on END, so top-p runs to its bar or token limit."""

    def __init__(self, inner: Policy):
        self.inner, self.vocab = inner, inner.vocab

    def next_distribution(self, prefix):
        dist = self.inner.next_distribution(prefix).copy()
        dist[self.vocab.end_id] = 0.0
        return dist


def _puct(start, models, rng):
    policy, classifier, discriminator = models
    cfg = DecodeConfig(target=EmotionQuadrant.E2, budget=4, max_bars=2, max_tokens=60)
    return decode_piece(start, policy, classifier, discriminator, cfg, rng=rng)


def _sbbs(start, models, rng):
    policy, classifier, _ = models
    cfg = SBBSConfig(target=EmotionQuadrant.E3, beams=8, top_k=10, max_bars=4, max_tokens=300)
    return sbbs_decode(start, policy, classifier, cfg, rng=rng)


def _topp(start, models, rng):
    cfg = SamplingConfig(top_p=0.95, max_bars=40, max_tokens=400)
    return top_p_decode(start, EndlessPolicy(models[0]), cfg, rng=rng)


DECODERS = {"puct": _puct, "sbbs": _sbbs, "topp": _topp}


class TestDecodersReadTheStream:
    @pytest.mark.parametrize("method", sorted(DECODERS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_block_draws_match_single_draws(self, steering_models, method, seed):
        ours, theirs = np.random.default_rng([seed, 5]), OneAtATime(np.random.default_rng([seed, 5]))
        seq, trace = DECODERS[method]([VOCAB.start_id], steering_models, ours)
        want_seq, want_trace = DECODERS[method]([VOCAB.start_id], steering_models, theirs)
        assert seq == want_seq
        assert trace.to_dict() == want_trace.to_dict()
        assert ours.bit_generator.state == theirs.rng.bit_generator.state
        assert theirs.draws > BLOCK  # a block boundary was crossed

    def test_cs_reads_it_through_top_p(self, cs_conditional):
        cfg = SamplingConfig(max_bars=4, max_tokens=400)
        ours, theirs = np.random.default_rng(9), OneAtATime(np.random.default_rng(9))
        seq, trace = cs_decode([VOCAB.start_id], cs_conditional, EmotionQuadrant.E1, cfg, ours)
        want_seq, want_trace = cs_decode([VOCAB.start_id], cs_conditional, EmotionQuadrant.E1, cfg, theirs)
        assert (seq, trace.to_dict()) == (want_seq, want_trace.to_dict())
        assert ours.bit_generator.state == theirs.rng.bit_generator.state

    @pytest.mark.parametrize(
        "method, index, attribute, calls",
        [
            ("puct", 1, "distribution", 70),  # the classifier, mid-search
            ("sbbs", 1, "distribution", 12),
            ("topp", 0, "next_distribution", 300),  # the policy
        ],
    )
    def test_a_raising_decode_leaves_the_same_state(self, steering_models, method, index, attribute, calls):
        states = []
        draws = None
        for rng in (np.random.default_rng(7), OneAtATime(np.random.default_rng(7))):
            models = list(steering_models)
            models[index] = Failing(models[index], attribute, calls)
            with pytest.raises(RuntimeError, match="failed"):
                DECODERS[method]([VOCAB.start_id], models, rng)
            generator = getattr(rng, "rng", rng)
            states.append(generator.bit_generator.state)
            draws = getattr(rng, "draws", draws)
        assert states[0] == states[1]
        assert draws > BLOCK
