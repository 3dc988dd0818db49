import hashlib
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tradefool.dqn as dqn_module
from tradefool.dqn import (
    ReplayBuffer,
    TrainerConfig,
    TrainingError,
    Transition,
    select_action,
    train,
)
from tradefool.envs import BasicStockEnv, StepResult, make_env
from tradefool.harness import run_episode
from tradefool.market_data import synthesize_bars
from tradefool.presets import ENV, TRAINER
from tradefool.qnet import Batch, QNetwork, forward, target_bootstraps, td_loss


def small_config(**overrides):
    fields = dict(total_timesteps=400, gamma=0.95, learning_rate=1e-3,
                  buffer_capacity=200, learning_starts=50, target_sync_every=100,
                  batch_size=16, hidden_sizes=(8,), epsilon_decay_fraction=0.2)
    fields.update(overrides)
    return TrainerConfig(**fields)


@pytest.fixture(scope="module")
def small_env_bars():
    return synthesize_bars(1500, drift=1e-4, volatility=0.01, momentum=-0.3, seed=21)


class TestSelectAction:
    def test_greedy_when_epsilon_zero(self):
        net = QNetwork(sizes=[1, 3], weights=[np.array([[0.0, 1.0, 0.0]])],
                       biases=[np.zeros(3)])
        rng = np.random.default_rng(0)
        assert select_action(net, np.ones(1), 0.0, rng) == 1

    def test_tie_breaks_to_lowest_index(self):
        net = QNetwork(sizes=[1, 3], weights=[np.array([[1.0, 1.0, 0.0]])],
                       biases=[np.zeros(3)])
        assert select_action(net, np.ones(1), 0.0, np.random.default_rng(0)) == 0

    def test_epsilon_one_is_uniform_within_3_sigma(self):
        net = QNetwork(sizes=[1, 3], weights=[np.array([[1.0, 0.0, 0.0]])],
                       biases=[np.zeros(3)])
        rng = np.random.default_rng(123)
        draws = 10_000
        counts = np.zeros(3)
        for _ in range(draws):
            counts[select_action(net, np.ones(1), 1.0, rng)] += 1
        p = 1.0 / 3.0
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) < 3 * sigma)


def per_array_param_noise(net, state, sigma, rng):
    """Reference: the exploration gate's draw, then noise drawn array by
    array, every weight matrix, then every bias vector. Returns (noisy net,
    its greedy action)."""
    rng.random()
    noisy = net.clone()
    for w in noisy.weights:
        w += sigma * rng.standard_normal(w.shape)
    for b in noisy.biases:
        b += sigma * rng.standard_normal(b.shape)
    return noisy, int(np.argmax(forward(noisy, state)))


class TestParamNoise:
    def test_matches_per_array_reference(self, monkeypatch):
        net = QNetwork.initialize([7, 5, 4, 6], np.random.default_rng(2))
        before = net.params.copy()
        state = np.random.default_rng(3).normal(size=7)
        served = []  # the noisy net each call acts on
        monkeypatch.setattr(dqn_module, "forward",
                            lambda noisy, obs: served.append(noisy) or forward(noisy, obs))
        actions = set()
        for seed in range(12):
            action = select_action(net, state, 1.0, np.random.default_rng(seed),
                                   noise_sigma=0.5)
            noisy, expected = per_array_param_noise(net, state, 0.5,
                                                    np.random.default_rng(seed))
            assert np.array_equal(served[-1].params, noisy.params)
            assert action == expected
            actions.add(action)
        assert len(actions) > 1  # the noise moves the greedy action
        assert np.array_equal(net.params, before)


class TestReplayBuffer:
    @staticmethod
    def transition(tag):
        return (np.array([tag], dtype=float), 0, float(tag),
                np.array([tag], dtype=float), False)

    def test_never_exceeds_capacity_and_fifo_eviction(self):
        buf = ReplayBuffer(3, np.random.default_rng(0))
        for i in range(7):
            buf.push(*self.transition(i))
            assert len(buf) <= 3
        batch = buf.sample(200)
        next_states, _ = buf.next_rows(buf.slots)
        assert set(batch.rewards.tolist()) == {4.0, 5.0, 6.0}
        # the columns stay aligned row by row
        assert np.array_equal(batch.states[:, 0], batch.rewards)
        assert np.array_equal(next_states[:, 0], batch.rewards)

    def test_sampling_uniform_over_contents(self):
        buf = ReplayBuffer(4, np.random.default_rng(5))
        for i in range(4):
            buf.push(*self.transition(i))
        draws = buf.sample(8000).rewards
        counts = np.bincount(draws.astype(int), minlength=4)
        sigma = np.sqrt(8000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 2000) < 4 * sigma)

    @pytest.mark.parametrize("state, next_state", [
        (np.zeros(2), np.zeros(1)), (np.zeros(1), np.zeros(2)),
        (np.zeros((1, 1)), np.zeros((1, 1))), (np.float64(0.0), np.zeros(1))])
    def test_state_shape_mismatch_raises_at_push(self, state, next_state):
        buf = ReplayBuffer(4, np.random.default_rng(0))
        buf.push(*self.transition(0))
        with pytest.raises(TrainingError, match="do not match buffer rows"):
            buf.push(state, 0, 0.0, next_state, False)
        assert len(buf) == 1

    def test_first_push_must_have_matching_1d_states(self):
        with pytest.raises(TrainingError, match="do not match buffer rows"):
            ReplayBuffer(4, np.random.default_rng(0)).push(
                np.zeros((2, 2)), 0, 0.0, np.zeros((2, 2)), False)
        with pytest.raises(TrainingError, match="do not match buffer rows"):
            ReplayBuffer(4, np.random.default_rng(0)).push(
                np.zeros(3), 0, 0.0, np.zeros(2), False)

    def test_rejects_non_finite_reward(self):
        buf = ReplayBuffer(2, np.random.default_rng(0))
        with pytest.raises(TrainingError):
            buf.push(np.zeros(1), 0, float("nan"), np.zeros(1), False)


# The list-of-transitions replay buffer and the np.stack batch builder that the
# columnar ReplayBuffer replaced, kept as the reference it must match bit for bit.
class ListReplayBuffer:
    def __init__(self, capacity, rng):
        self.capacity = int(capacity)
        self.rng = rng
        self._items = []
        self._next = 0

    def __len__(self):
        return len(self._items)

    def push(self, state, action, reward, next_state, terminal):
        if not np.isfinite(reward):
            raise TrainingError(f"non-finite reward {reward}")
        transition = Transition(state, action, reward, next_state, terminal)
        if len(self._items) < self.capacity:
            self._items.append(transition)
        else:
            self._items[self._next] = transition
            self._next = (self._next + 1) % self.capacity

    def sample(self, batch_size):
        idx = self.slots = self.rng.integers(0, len(self._items), size=batch_size)
        return [self._items[i] for i in idx]

    def next_rows(self, slots):  # sample's slots and this serve train's bootstrap cache
        return (np.array([self._items[i].next_state for i in slots]),
                np.array([self._items[i].terminal for i in slots], dtype=bool))


def stack_batch(transitions):
    return Batch(np.stack([t.state for t in transitions]),
                 np.array([t.action for t in transitions], dtype=np.intp),
                 np.array([t.reward for t in transitions], dtype=np.float64),
                 np.stack([t.next_state for t in transitions]),
                 np.array([t.terminal for t in transitions], dtype=bool))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestReplayMatchesListReference:
    def test_same_batches_and_gradients_as_buffer_wraps(self):
        rng = np.random.default_rng(8)
        columnar = ReplayBuffer(16, np.random.default_rng(3))
        listed = ListReplayBuffer(16, np.random.default_rng(3))
        net = QNetwork.initialize([5, 8, 3], np.random.default_rng(0))
        target = QNetwork.initialize([5, 8, 3], np.random.default_rng(1))
        for step in range(60):  # wraps the 16 slots three times
            fields = (rng.normal(size=5), int(rng.integers(3)), float(rng.normal()),
                      rng.normal(size=5), bool(rng.random() < 0.2))
            columnar.push(*fields)
            listed.push(*fields)
            assert len(columnar) == len(listed)
            if step % 3:
                continue
            batch, reference = columnar.sample(7), listed.sample(7)
            assert batch.next_states is None and batch.terminal is None  # gathered on demand
            gathered = Batch(*batch[:3], *columnar.next_rows(columnar.slots))
            assert all(same_bits(got, want)
                       for got, want in zip(gathered, stack_batch(reference)))
            bootstraps = target_bootstraps(target, gathered.next_states, gathered.terminal, 0.9)
            got = td_loss(net, target, batch, 0.9, None, bootstraps)
            want = td_loss(net, target, reference, 0.9)
            assert got.loss == want.loss
            assert all(same_bits(g, w) for g, w in zip(got.weight_grads + got.bias_grads,
                                                       want.weight_grads + want.bias_grads))

    @pytest.mark.parametrize("preset, overrides", [
        ("basic", dict(total_timesteps=1600, buffer_capacity=400)),
        ("managed", dict(total_timesteps=1600, clip_rewards=True, hidden_sizes=(16, 16)))])
    def test_train_matches_list_reference(self, small_env_bars, monkeypatch, preset,
                                          overrides):
        config = TrainerConfig(**{**TRAINER[preset], **overrides})
        assert config.total_timesteps > config.buffer_capacity  # the buffer wraps
        env_block = dict(ENV[preset])
        kind = env_block.pop("kind")

        def run():
            return train(make_env(kind, small_env_bars, **env_block), config, seed=9)

        net, trace = run()
        monkeypatch.setattr(dqn_module, "ReplayBuffer", ListReplayBuffer)
        ref_net, ref_trace = run()
        assert all(same_bits(a, b) for a, b in zip(net.weights + net.biases,
                                                   ref_net.weights + ref_net.biases))
        assert trace.rows == ref_trace.rows


class TestEpsilonSchedule:
    def test_linear_fraction_decay(self):
        config = small_config(total_timesteps=1000, epsilon_initial=1.0,
                              epsilon_final=0.1, epsilon_decay_fraction=0.1)
        assert config.epsilon_at(1) == 1.0
        assert config.epsilon_at(101) == pytest.approx(0.1)
        assert config.epsilon_at(1000) == pytest.approx(0.1)

    def test_interval_decay_reaches_final(self):
        config = small_config(total_timesteps=1000, epsilon_initial=0.9,
                              epsilon_final=0.05, epsilon_decay_fraction=None,
                              epsilon_decay_interval=200)
        values = [config.epsilon_at(t) for t in (1, 201, 401, 601, 801)]
        assert values[0] == 0.9
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.05)
        assert config.epsilon_at(1000) == pytest.approx(0.05)

    def test_validate_rejects_bad_epsilons(self):
        with pytest.raises(TrainingError):
            small_config(epsilon_initial=0.1, epsilon_final=0.5)


class TestTrainerFields:
    # each once raised TypeError from a comparison, or passed: a string for a
    # bool trained with clipping, and both decay settings decayed by interval
    @pytest.mark.parametrize("fields", [
        {"total_timesteps": "10"}, {"gamma": None}, {"learning_rate": "1e-3"},
        {"hidden_sizes": (8, "8")}, {"clip_rewards": "no"}, {"clip_rewards": 1},
        {"epsilon_decay_interval": 200}, {"epsilon_decay_fraction": None},
        {"learning_starts": -1}, {"param_noise_sigma": -0.05},
    ])
    def test_bad_field_raises_training_error(self, fields):
        with pytest.raises(TrainingError, match="|".join(fields)):
            small_config(**fields)

    def test_replace_checks_and_fields_are_frozen(self):
        config = small_config()
        with pytest.raises(TrainingError, match="gamma"):
            replace(config, gamma=1.5)
        with pytest.raises(FrozenInstanceError):
            config.gamma = 1.5

    def test_numpy_scalars_and_tuples_pass(self):
        small_config(total_timesteps=np.int64(400), gamma=np.float64(0.9),
                     clip_rewards=np.bool_(True), hidden_sizes=(np.int32(8),))


class TestTrain:
    def test_replay_rows_stop_at_total_timesteps(self, small_env_bars, monkeypatch):
        # a run stores one transition per step, so rows past total_timesteps are
        # never written: a capacity of 10**15 once failed with MemoryError
        capacities = []
        monkeypatch.setattr(dqn_module, "ReplayBuffer", lambda capacity, rng: (
            capacities.append(capacity) or ReplayBuffer(capacity, rng)))
        runs = [train(BasicStockEnv(small_env_bars), small_config(buffer_capacity=capacity),
                      seed=4) for capacity in (400, 10**15)]
        assert capacities == [400, 400]
        (net_a, trace_a), (net_b, trace_b) = runs
        assert np.array_equal(net_a.params, net_b.params) and trace_a.rows == trace_b.rows

    def test_no_updates_before_learning_start(self, small_env_bars):
        env = BasicStockEnv(small_env_bars)
        config = small_config(total_timesteps=40, learning_starts=100)
        net, _ = train(env, config, seed=3)
        rng = np.random.default_rng(np.random.SeedSequence(3).spawn(4)[0])
        init = QNetwork.initialize([env.observation_dim, 8, env.n_actions], rng)
        for a, b in zip(net.weights, init.weights):
            assert np.array_equal(a, b)

    def test_same_seed_bit_identical(self, small_env_bars):
        env1 = BasicStockEnv(small_env_bars)
        env2 = BasicStockEnv(small_env_bars)
        net1, trace1 = train(env1, small_config(), seed=11)
        net2, trace2 = train(env2, small_config(), seed=11)
        digest = lambda n: hashlib.sha256(b"".join(w.tobytes() for w in n.weights)).hexdigest()
        assert digest(net1) == digest(net2)
        assert trace1.rows == trace2.rows

    def test_reward_clipping_bounds_buffer_rewards(self, small_env_bars):
        env = BasicStockEnv(small_env_bars, commission_pct=2.5)
        stored = []
        original_push = ReplayBuffer.push

        def spy(self, state, action, reward, next_state, terminal):
            stored.append(reward)
            original_push(self, state, action, reward, next_state, terminal)

        ReplayBuffer.push = spy
        try:
            train(env, small_config(total_timesteps=300, clip_rewards=True), seed=2)
        finally:
            ReplayBuffer.push = original_push
        assert stored and all(-1.0 <= r <= 1.0 for r in stored)

    def test_builds_no_transition(self, small_env_bars, monkeypatch):
        def run():
            return train(BasicStockEnv(small_env_bars), small_config(), seed=6)

        net, trace = run()

        def no_transition(*args, **kwargs):
            raise AssertionError("train built a Transition")

        monkeypatch.setattr(dqn_module, "Transition", no_transition)
        fielded_net, fielded_trace = run()
        assert net.params.tobytes() == fielded_net.params.tobytes()
        assert trace.rows == fielded_trace.rows

    def test_param_noise_mode_runs_deterministically(self, small_env_bars):
        env1 = BasicStockEnv(small_env_bars)
        env2 = BasicStockEnv(small_env_bars)
        config = small_config(total_timesteps=200, exploration="param_noise")
        net1, _ = train(env1, config, seed=5)
        net2, _ = train(env2, config, seed=5)
        assert all(np.array_equal(a, b) for a, b in zip(net1.weights, net2.weights))

    def test_target_network_constant_between_syncs(self, small_env_bars, monkeypatch):
        hashes = []
        original = dqn_module.td_loss

        def spy(net, target, *args):  # batch, gamma and whatever train passes after them
            hashes.append(hashlib.sha256(
                b"".join(w.tobytes() for w in target.weights)).hexdigest())
            return original(net, target, *args)

        monkeypatch.setattr(dqn_module, "td_loss", spy)
        env = BasicStockEnv(small_env_bars)
        config = small_config(total_timesteps=350, learning_starts=10,
                              target_sync_every=100)
        train(env, config, seed=4)
        # the target hash may change only at sync boundaries: 350 steps with
        # syncs at 100/200/300 allow at most 4 distinct parameter snapshots
        assert len(hashes) > 300
        assert 1 < len(set(hashes)) <= 4
        boundaries = [i for i in range(1, len(hashes)) if hashes[i] != hashes[i - 1]]
        assert len(boundaries) == len(set(hashes)) - 1


class TestWorkspaceReuse:
    @pytest.mark.parametrize("exploration", ["epsilon_greedy", "param_noise"])
    def test_reused_arrays_carry_nothing_between_updates(self, small_env_bars, monkeypatch,
                                                         tmp_path, exploration):
        # 400 updates across 4 target syncs, rewards clipped
        config = small_config(total_timesteps=450, learning_starts=50, target_sync_every=100,
                              clip_rewards=True, exploration=exploration)
        td_loss = dqn_module.td_loss
        returned = []

        def run(name):
            returned.clear()
            net, trace = train(BasicStockEnv(small_env_bars), config, seed=9)
            trace.write_csv(tmp_path / name)
            losses = [row[-1] for row in trace.rows if row[-1] is not None]
            return net.params.tobytes(), trace.rows, losses, (tmp_path / name).read_bytes()

        def spy_td_loss(*args):
            returned.append(td_loss(*args))
            return returned[-1]

        monkeypatch.setattr(dqn_module, "td_loss", spy_td_loss)
        reused = run("reused.csv")
        assert len(returned) == 400
        assert len({id(x) for x in returned}) == 1  # one bundle per run

        def fresh_td_loss(net, target, batch, gamma, grads=None, bootstraps=None):
            returned.append(td_loss(net, target, batch, gamma, None, bootstraps))
            return returned[-1]

        monkeypatch.setattr(dqn_module, "td_loss", fresh_td_loss)
        fresh = run("fresh.csv")
        assert len(returned) == 400 and len(fresh[2]) >= 300
        assert fresh == reused


class ScriptedEnv:
    """Plays back generated steps, ``(feature, reward, terminal)`` each; an
    observation is ``[step index / 8, feature]``, so no two are equal. A reset
    does not rewind the script."""

    n_actions = 3
    observation_dim = 2

    def __init__(self, steps):
        self.steps = steps
        self.index = 0

    def reset(self, rng):
        pass

    def observation(self):
        return np.array([self.index / 8.0, self.steps[self.index % len(self.steps)][0]])

    def step(self, action):
        _, reward, terminal = self.steps[self.index % len(self.steps)]
        self.index += 1
        return StepResult(reward, terminal)


@st.composite
def cache_runs(draw, crossing: bool):
    """(config, steps) of a run whose buffer wraps while the cache runs or,
    ``crossing``, outgrows the cache's size limit ``batch_size * target_sync_every``."""
    batch_size = draw(st.integers(1, 4))
    sync = draw(st.integers(1, 6))
    limit = batch_size * sync
    capacity = draw(st.integers(limit + 1, limit + 6) if crossing
                    else st.integers(batch_size, limit))
    starts = draw(st.integers(0, min(5, limit - 1)))  # the first update runs the cache
    total = draw(st.integers(max(capacity, starts) + 1, capacity + 30))
    config = TrainerConfig(total_timesteps=total, gamma=draw(st.floats(0.5, 1.0)),
                           learning_rate=1e-2, buffer_capacity=capacity,
                           learning_starts=starts, target_sync_every=sync,
                           batch_size=batch_size, hidden_sizes=(8,),
                           epsilon_decay_fraction=0.5)
    value = st.floats(-2.0, 2.0, allow_nan=False)
    steps = draw(st.lists(st.tuples(value, value, st.booleans()), min_size=1, max_size=total))
    return config, steps


class TestBootstrapCache:
    @pytest.mark.parametrize("crossing", [False, True], ids=["wrapping", "crossing"])
    @given(data=st.data())
    def test_y_matches_each_rows_target_pass(self, crossing, data):
        config, steps = data.draw(cache_runs(crossing))
        limit = config.batch_size * config.target_sync_every
        buffers, seen = [], {"cached": 0, "per_batch": 0}

        def new_buffer(capacity, rng):
            buffers.append(ReplayBuffer(capacity, rng))
            return buffers[-1]

        def spy(net, target, batch, gamma, grads=None, bootstraps=None):
            assert batch.next_states is None and batch.terminal is None  # never gathered
            # the y of each row from its own target pass over the slot's current next state
            next_states, terminal = buffers[-1].next_rows(buffers[-1].slots)
            q_next = [forward(target, row).max() for row in next_states]
            parts = [(r, 0.0 if done else gamma * q)
                     for r, q, done in zip(batch.rewards, q_next, terminal)]
            if len(buffers[-1]) > limit:
                seen["per_batch"] += 1
                bundle = td_loss(net, target, batch, gamma, grads, bootstraps)
                # the y of one target pass over the batch, and so the loss, keep their bits
                y = batch.rewards + gamma * forward(target, next_states).max(axis=1) \
                    * (~terminal)
                assert (batch.rewards + bootstraps).tobytes() == y.tobytes()
                diff = forward(net, batch.states)[np.arange(len(y)), batch.actions] - y
                assert bundle.loss == float(np.add.reduce(diff**2) / len(y))
                return bundle
            seen["cached"] += 1
            for (r, b), y in zip(parts, batch.rewards + bootstraps):
                assert abs(y - (r + b)) <= 1e-12 * (abs(r) + abs(b))
            return td_loss(net, target, batch, gamma, grads, bootstraps)

        with pytest.MonkeyPatch.context() as patch:
            # refreshes of these few rows then take several passes, as larger buffers' do
            patch.setattr(dqn_module.BootstrapCache, "CHUNK", data.draw(st.integers(1, 4)))
            patch.setattr(dqn_module, "ReplayBuffer", new_buffer)
            patch.setattr(dqn_module, "td_loss", spy)
            train(ScriptedEnv(steps), config, seed=0)
        assert seen["cached"] > 0 and (seen["per_batch"] > 0) == crossing


def random_policy_reward(env, start: int, rng) -> float:
    """Total reward of a uniform-random policy over one episode from ``start``."""
    env.reset(start)
    total = 0.0
    while True:
        step = env.step(int(rng.integers(env.n_actions)))
        total += step.reward
        if step.terminal:
            return total


class TestEvaluate:
    def test_trained_beats_random_on_strong_uptrend(self):
        bars = synthesize_bars(3000, drift=3e-3, volatility=1e-4, seed=13)
        env = BasicStockEnv(bars, commission_pct=0.0, episode_cap=100)
        config = TrainerConfig(total_timesteps=4000, gamma=0.9, learning_rate=1e-2,
                               buffer_capacity=5000, learning_starts=200,
                               target_sync_every=250, batch_size=32, hidden_sizes=(16,),
                               epsilon_decay_fraction=0.5)
        net, _ = train(env, config, seed=1)
        rng = np.random.default_rng(77)
        greedy, baseline = [], []
        for seed in range(77, 97):
            record, _ = run_episode(net, env, seed)
            greedy.append(record.total_reward)
            start = env.cursor - len(record)  # each step advances the cursor one bar
            baseline.append(random_policy_reward(env, start, rng))
        assert np.mean(greedy) > np.mean(baseline)


class TestTrace:
    def test_cum_reward_is_prefix_sum_and_csv_written(self, small_env_bars, tmp_path):
        env = BasicStockEnv(small_env_bars)
        _, trace = train(env, small_config(total_timesteps=120), seed=6)
        cums = {}
        for episode, step, action, reward, cum, eps, loss in trace.rows:
            cums.setdefault("total", 0.0)
            cums["total"] += reward
            assert cum == pytest.approx(cums["total"])
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "episode,step,action,reward,cum_reward,epsilon,loss"
