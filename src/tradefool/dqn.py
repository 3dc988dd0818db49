"""DQN training.

Plain SGD on the squared TD error, uniform experience replay, a periodically
synchronized target network, epsilon-greedy exploration (optionally fixed-
sigma parameter noise for action selection), optional reward clipping to
[-1, 1].

The TD target of a replayed transition is y = r + b, with its bootstrap
b = gamma * max_a' Q_target(s', a') (0 when the transition is terminal). The
target network is frozen between syncs, so b changes only when its slot is
overwritten or the target synced. While the buffer holds no more rows than
``batch_size * target_sync_every`` (the rows one sync period's batches
forward), ``train`` keeps each slot's b in a ``BootstrapCache``: a push marks
its slot stale, a sync marks every slot stale, and a sample that draws a
stale slot first refreshes every stale slot, ``BootstrapCache.CHUNK`` rows
per target pass, so a refresh holds the activations of at most that many
rows whatever the buffer's size. Above that size a refresh would forward more
rows than the batches it serves, and the cache runs the target over each
batch's next states instead, the only time they are gathered. A refresh
forwards rows in other batch shapes than a per-batch pass, which moves b in
its last bits only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import RuleTable
from .qnet import (Batch, QNetwork, forward, sgd_step, sync_target, target_bootstraps,
                   td_loss)


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool


class ReplayBuffer:
    """Bounded FIFO transition store with seeded uniform sampling.

    Each push stores one step's fields by column, in arrays allocated on the
    first push (``np.empty``, so rows never written take no memory). Transition
    ``k`` lives in slot ``k % capacity``, so once full each push evicts the oldest.
    """

    def __init__(self, capacity: int, rng: np.random.Generator):
        if capacity < 1:
            raise TrainingError("buffer capacity must be >= 1")
        self.capacity = int(capacity)
        self.rng = rng
        self._columns: Batch | None = None
        self.slots: np.ndarray | None = None  # the slot of each row of the last sample
        self._size = 0
        self._next = 0

    def __len__(self) -> int:
        return self._size

    def push(self, state, action: int, reward: float, next_state, terminal: bool) -> None:
        if not np.isfinite(reward):
            raise TrainingError(f"non-finite reward {reward}")
        shapes = np.shape(state), np.shape(next_state)
        if self._columns is None:
            rows = (self.capacity, np.size(state))
            self._columns = Batch(np.empty(rows), np.empty(self.capacity, dtype=np.intp),
                                  np.empty(self.capacity), np.empty(rows),
                                  np.empty(self.capacity, dtype=bool))
        states, actions, rewards, next_states, terminals = self._columns
        if shapes != (states.shape[1:],) * 2:
            raise TrainingError(f"transition states of shapes {shapes[0]} and {shapes[1]} "
                                f"do not match buffer rows {states.shape[1:]}")
        slot = self._next
        states[slot] = state
        actions[slot] = action
        rewards[slot] = reward
        next_states[slot] = next_state
        terminals[slot] = terminal
        self._next = (slot + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int) -> Batch:
        """``batch_size`` transitions drawn uniformly with replacement, their
        slots kept in ``slots``; ``next_states`` and ``terminal`` are None, for
        ``next_rows(slots)`` to gather when they are needed."""
        if self._size == 0:
            raise TrainingError("cannot sample from an empty buffer")
        idx = self.slots = self.rng.integers(0, self._size, size=batch_size)
        states, actions, rewards = (column.take(idx, axis=0) for column in self._columns[:3])
        return Batch(states, actions, rewards, None, None)

    def next_rows(self, slots) -> tuple[np.ndarray, np.ndarray]:
        """The next states and terminal flags stored in ``slots``."""
        return self._columns.next_states[slots], self._columns.terminal[slots]


class BootstrapCache:
    """Each replay slot's bootstrap, ``target_bootstraps`` of its next state
    under the target network, for as long as neither changes, while the buffer
    holds at most ``limit`` rows.

    ``stale`` marks the slots whose value is not current: the caller marks a
    slot it pushes to and, on a target sync, every slot.
    """

    # rows per target pass of a refresh; at 256 rows OpenBLAS split the basic
    # preset's products across threads, which doubled a 2-core host's CPU time
    CHUNK = 128

    def __init__(self, capacity: int, limit: int):
        self.limit = limit
        self.values = np.empty(capacity)
        self.stale = np.ones(capacity, dtype=bool)

    def take(self, buffer: ReplayBuffer, target: QNetwork, gamma: float) -> np.ndarray:
        """The bootstraps of the rows of ``buffer``'s last sample: above ``limit``
        rows from one target pass over them, else from the cache, after a
        refresh of every stale slot if one of theirs is stale."""
        slots = buffer.slots
        if len(buffer) > self.limit:
            return target_bootstraps(target, *buffer.next_rows(slots), gamma)
        if np.count_nonzero(self.stale[slots]):
            stale = self.stale[:len(buffer)].nonzero()[0]
            for start in range(0, len(stale), self.CHUNK):
                rows = stale[start:start + self.CHUNK]
                self.values[rows] = target_bootstraps(target, *buffer.next_rows(rows), gamma)
            self.stale[stale] = False
        return self.values[slots]


@dataclass(frozen=True)
class TrainerConfig:
    total_timesteps: int
    gamma: float = 0.99
    learning_rate: float = 1e-4
    buffer_capacity: int = 100_000
    learning_starts: int = 1000
    target_sync_every: int = 1000
    batch_size: int = 32
    epsilon_initial: float = 1.0
    epsilon_final: float = 0.02
    epsilon_decay_fraction: float | None = 0.1  # of total timesteps (linear decay)
    epsilon_decay_interval: int | None = None   # geometric decay every N steps
    clip_rewards: bool = False
    hidden_sizes: tuple[int, ...] = (64, 64)
    exploration: str = "epsilon_greedy"  # | "param_noise"
    param_noise_sigma: float = 0.05

    RULES = RuleTable(TrainingError, dict(
        total_timesteps="[1, inf)", gamma="[0, 1]", learning_rate="(0, inf)",
        buffer_capacity="[1, inf)", learning_starts="[0, inf)", target_sync_every="[1, inf)",
        batch_size="[1, inf)", epsilon_initial="[0, 1]", epsilon_final="[0, 1]",
        epsilon_decay_fraction="(0, 1]", epsilon_decay_interval="[1, inf)",
        hidden_sizes="[1, inf)", exploration=("epsilon_greedy", "param_noise"),
        param_noise_sigma="[0, inf)"), {
            "epsilon_final <= epsilon_initial":
                lambda epsilon_final, epsilon_initial: epsilon_final <= epsilon_initial,
            "exactly one of epsilon_decay_fraction and epsilon_decay_interval":
                lambda epsilon_decay_fraction, epsilon_decay_interval:
                    (epsilon_decay_fraction is None) != (epsilon_decay_interval is None)})

    def __post_init__(self) -> None:
        self.RULES.check(vars(self))

    def epsilon_at(self, step: int) -> float:
        """Exploration probability at 1-based step ``step``."""
        if self.epsilon_decay_interval is not None:
            # geometric decay sized to land on epsilon_final in the last interval
            n_decays = max(1, self.total_timesteps // self.epsilon_decay_interval - 1)
            if self.epsilon_initial == 0.0:
                return 0.0
            factor = (max(self.epsilon_final, 1e-12) / self.epsilon_initial) ** (1.0 / n_decays)
            k = (step - 1) // self.epsilon_decay_interval
            return max(self.epsilon_final, self.epsilon_initial * factor**k)
        decay_steps = max(1, int(self.total_timesteps * self.epsilon_decay_fraction))
        frac = min(1.0, (step - 1) / decay_steps)
        return self.epsilon_initial + (self.epsilon_final - self.epsilon_initial) * frac


def select_action(net: QNetwork, state, epsilon: float, rng: np.random.Generator,
                  noise_sigma: float | None = None) -> int:
    """With probability ``epsilon`` a uniform random action or, given
    ``noise_sigma``, the greedy action of ``net`` with Gaussian noise of that
    sigma on its parameters; else the greedy action, ties to the lowest index."""
    if not 0.0 <= epsilon <= 1.0:
        raise TrainingError(f"epsilon must be in [0,1], got {epsilon}")
    if epsilon > 0.0 and rng.random() < epsilon:
        if noise_sigma is None:
            return int(rng.integers(net.n_actions))
        net = net.clone()
        net.params += noise_sigma * rng.standard_normal(net.params.size)
    return int(forward(net, state).argmax())


@dataclass
class TrainingTrace:
    rows: list[tuple] = field(default_factory=list)  # episode,step,action,reward,cum,eps,loss
    episode_rewards: list[float] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:  # csv.writer's bytes
            handle.write("episode,step,action,reward,cum_reward,epsilon,loss\r\n")
            handle.write("".join(
                f"{episode},{step},{action},{float(reward)!r},{float(cum)!r},{float(eps)!r},"
                f"{'' if loss is None else repr(float(loss))}\r\n"
                for episode, step, action, reward, cum, eps, loss in self.rows))


def train(env, config: TrainerConfig, seed: int) -> tuple[QNetwork, TrainingTrace]:
    """Run the DQN interaction loop; fully determined by (seed, data, config)."""
    streams = np.random.SeedSequence(seed).spawn(4)
    rng_init = np.random.default_rng(streams[0])
    rng_env = np.random.default_rng(streams[1])
    rng_explore = np.random.default_rng(streams[2])
    rng_buffer = np.random.default_rng(streams[3])

    net = QNetwork.initialize(
        [env.observation_dim, *config.hidden_sizes, env.n_actions], rng_init)
    target = net.clone()
    # transition k goes to slot k % capacity, and a run stores total_timesteps
    buffer = ReplayBuffer(min(config.buffer_capacity, config.total_timesteps), rng_buffer)
    cache = BootstrapCache(buffer.capacity, config.batch_size * config.target_sync_every)
    trace = TrainingTrace()

    env.reset(rng_env)
    obs = env.observation()
    episode = 0
    episode_step = 0
    episode_reward = 0.0
    cum_reward = 0.0
    last_loss: float | None = None
    bundle = None  # td_loss allocates it on the first update and reuses it after
    noise_sigma = config.param_noise_sigma if config.exploration == "param_noise" else None

    # td_loss and sgd_step raise on a blow-up, so numpy need not warn of it
    with np.errstate(all="ignore"):
        for t in range(1, config.total_timesteps + 1):
            epsilon = config.epsilon_at(t)
            action = select_action(net, obs, epsilon, rng_explore, noise_sigma)
            result = env.step(action)
            state, obs = obs, env.observation()
            stored_reward = float(np.clip(result.reward, -1.0, 1.0)) if config.clip_rewards \
                else result.reward
            buffer.push(state, action, stored_reward, obs, result.terminal)
            cache.stale[(t - 1) % buffer.capacity] = True

            episode_step += 1
            episode_reward += result.reward
            cum_reward += result.reward
            trace.rows.append(
                (episode, episode_step, action, result.reward, cum_reward, epsilon, last_loss))

            if result.terminal:
                trace.episode_rewards.append(episode_reward)
                episode += 1
                episode_step = 0
                episode_reward = 0.0
                env.reset(rng_env)
                obs = env.observation()

            if t > config.learning_starts and len(buffer) >= config.batch_size:
                batch = buffer.sample(config.batch_size)
                bootstraps = cache.take(buffer, target, config.gamma)
                try:
                    bundle = td_loss(net, target, batch, config.gamma, bundle, bootstraps)
                    sgd_step(net, bundle, config.learning_rate)
                except ValueError as exc:
                    raise TrainingError(f"training diverged at step {t}: {exc}; lower "
                                        "learning_rate, or set clip_rewards") from exc
                last_loss = bundle.loss
            if t % config.target_sync_every == 0:
                sync_target(net, target)
                cache.stale[:] = True

    return net, trace
