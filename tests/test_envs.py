import numpy as np
import pytest

from rdecomp import envs


def run_policy(env, action_fn, rng, max_steps=None):
    """Roll one episode through the episodic wrapper; returns (rewards, T)."""
    wrapper = envs.EpisodicWrapper(env)
    state = wrapper.reset(rng)
    visible = []
    done = False
    while not done:
        res = wrapper.step(state, action_fn(state, rng), rng)
        visible.append(res.dense_reward)
        state = res.next_state
        done = res.done
        if max_steps and len(visible) >= max_steps:
            break
    return visible, wrapper


# ---------------------------------------------------------------------------
# chain


def test_chain_one_step_to_goal():
    env = envs.ChainMdp(2, 1)
    rewards, _ = run_policy(env, lambda s, r: 1, np.random.default_rng(0))
    assert rewards == [1.0]


def test_chain_always_left_never_scores():
    env = envs.ChainMdp(5, 10)
    rewards, _ = run_policy(env, lambda s, r: 0, np.random.default_rng(0))
    assert sum(rewards) == 0.0 and len(rewards) == 10


@pytest.mark.parametrize("make", [lambda: envs.ChainMdp(6, 9), lambda: envs.SparseGridworld(3, 7)],
                         ids=["chain", "grid"])
def test_one_hot_cells_are_read_only_fresh_one_hots(make):
    env = make()

    def fresh(index):
        v = np.zeros(env.n_cells)
        v[index] = 1.0
        return v

    for index in range(env.n_cells):
        state = env.state_vector(index)
        assert state.dtype == np.float64 and np.array_equal(state, fresh(index))
        assert env.state_vector(index) is state
        assert env.state_index(state) == index == env.state_index(fresh(index))
    rng = np.random.default_rng(0)
    handed_out = [env.reset(rng)]
    for action in rng.integers(0, env.n_actions, size=40):
        result = env.step(handed_out[-1], action, rng)
        # a fresh one-hot of the same cell steps the same way
        again = env.step(fresh(env.state_index(handed_out[-1])), action, rng)
        assert np.array_equal(result.next_state, again.next_state)
        assert (result.dense_reward, result.done) == (again.dense_reward, again.done)
        handed_out.append(result.next_state)
    for state in handed_out:
        with pytest.raises(ValueError, match="read-only"):
            state[0] = 2.0
    assert np.array_equal(env.reset(rng), fresh(env.initial_index))
    assert all(np.array_equal(env.state_vector(i), fresh(i)) for i in range(env.n_cells))


def test_chain_rejects_tiny():
    with pytest.raises(ValueError, match="n_states"):
        envs.ChainMdp(1, 5)


def enumerate_expected_return(env, horizon, n_actions):
    """Independent DFS over the full action tree with uniform action choice."""

    def walk(idx, t, prob):
        if t == horizon:
            return 0.0
        total = 0.0
        for a in range(n_actions):
            nxt, reward, done = env.transition(idx, a)
            p = prob / n_actions
            total += p * reward
            if not done:
                total += walk(nxt, t + 1, p) * 1.0
        return total

    return walk(env.initial_index, 0, 1.0)


def test_chain_uniform_policy_matches_enumeration():
    env = envs.ChainMdp(5, 10)
    # brute force over all 2^10 action sequences, each with probability 2^-10
    expected_brute = 0.0
    for bits in range(2**10):
        seq = [(bits >> k) & 1 for k in range(10)]
        idx, ret = env.initial_index, 0.0
        for a in seq:
            idx, reward, done = env.transition(idx, a)
            ret += reward
            if done:
                break
        expected_brute += ret / 2**10
    expected_dfs = enumerate_expected_return(env, 10, 2)
    assert expected_brute == pytest.approx(expected_dfs, abs=1e-12)

    rng = np.random.default_rng(123)
    n = 20000
    returns = []
    for _ in range(n):
        rewards, _ = run_policy(env, lambda s, r: int(r.integers(2)), rng)
        returns.append(sum(rewards))
    returns = np.array(returns)
    se = returns.std() / np.sqrt(n)
    assert abs(returns.mean() - expected_brute) < 3 * se + 1e-9


# ---------------------------------------------------------------------------
# gridworld


def test_grid_shortest_path():
    env = envs.SparseGridworld(2, 4)
    actions = iter([1, 2])  # right, down
    rewards, _ = run_policy(env, lambda s, r: next(actions), np.random.default_rng(0))
    assert rewards == [0.0, 1.0]


def test_grid_optimal_within_horizon():
    env = envs.SparseGridworld(4, 16)
    moves = [1, 1, 1, 2, 2, 2]  # along the top edge then down
    actions = iter(moves)
    rewards, _ = run_policy(env, lambda s, r: next(actions), np.random.default_rng(0))
    assert sum(rewards) == 1.0 and len(rewards) == 6


def test_grid_uniform_success_probability_matches_enumeration():
    env = envs.SparseGridworld(3, 4)
    expected = enumerate_expected_return(env, 4, 4)
    rng = np.random.default_rng(7)
    n = 40000
    wins = 0
    for _ in range(n):
        rewards, _ = run_policy(env, lambda s, r: int(r.integers(4)), rng)
        wins += sum(rewards) > 0
    se = np.sqrt(expected * (1 - expected) / n)
    assert abs(wins / n - expected) < 3 * se + 1e-9


def test_grid_rejects_tiny():
    with pytest.raises(ValueError, match="size"):
        envs.SparseGridworld(1, 5)


def test_grid_walls_block():
    env = envs.SparseGridworld(3, 5)
    idx, reward, done = env.transition(0, 0)  # up from the top-left corner
    assert idx == 0 and reward == 0.0 and not done


# ---------------------------------------------------------------------------
# point mass


def test_point_mass_zero_action_at_goal():
    env = envs.PointMass(10)
    state = np.array([1.0, 1.0, 0.0, 0.0])  # at goal, at rest
    total = 0.0
    for _ in range(10):
        res = env.step(state, np.zeros(2), np.random.default_rng(0))
        total += res.dense_reward
        state = res.next_state
    assert total == 0.0


def test_point_mass_constant_action_matches_scripted_euler():
    env = envs.PointMass(8)
    action = np.array([1.0, 0.0])
    state = env.reset(np.random.default_rng(0))
    got = []
    for _ in range(8):
        res = env.step(state, action, np.random.default_rng(0))
        got.append(res.dense_reward)
        state = res.next_state

    # independent scripted kinematics: v += dt*a, p += dt*v, r = -|p - goal|
    dt, goal = 0.05, np.array([1.0, 1.0])
    pos, vel = np.zeros(2), np.zeros(2)
    want = []
    for _ in range(8):
        vel = vel + dt * action
        pos = pos + dt * vel
        want.append(-float(np.linalg.norm(pos - goal)))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_point_mass_action_clipping_contract():
    env = envs.PointMass(5)
    state = np.array([0.3, -0.2, 0.1, 0.0])
    rng = np.random.default_rng(0)
    big = env.step(state, np.array([6.0, 8.0]), rng)
    unit = env.step(state, np.array([0.6, 0.8]), rng)
    np.testing.assert_array_equal(big.next_state, unit.next_state)
    assert big.dense_reward == unit.dense_reward


# ---------------------------------------------------------------------------
# wrapper and registry


def test_wrapper_pays_exact_sum_once():
    env = envs.PointMass(12)
    rng = np.random.default_rng(5)
    wrapper = envs.EpisodicWrapper(env)
    state = wrapper.reset(rng)
    hidden = []
    visible = []
    for _ in range(12):
        action = rng.normal(size=2)
        inner = env.step(state, action, rng)
        hidden.append(inner.dense_reward)
        res = wrapper.step(state, action, rng)
        visible.append(res.dense_reward)
        state = res.next_state
        if res.done:
            break
    assert visible[:-1] == [0.0] * (len(visible) - 1)
    assert visible[-1] == sum(hidden)  # same float additions, exact


def test_wrapper_enforces_horizon():
    env = envs.ChainMdp(10, 3)
    rewards, wrapper = run_policy(env, lambda s, r: 1, np.random.default_rng(0))
    assert len(rewards) == 3
    assert rewards[-1] == 0.0  # goal not reached, episodic return is 0


def test_seeded_reproducibility():
    env = envs.PointMass(6)

    def trajectory(seed):
        rng = np.random.default_rng(seed)
        wrapper = envs.EpisodicWrapper(env)
        state = wrapper.reset(rng)
        out = [state]
        for _ in range(6):
            res = wrapper.step(state, rng.normal(size=2), rng)
            state = res.next_state
            out.append(state)
        return np.array(out)

    assert np.array_equal(trajectory(42), trajectory(42))
    assert not np.array_equal(trajectory(42), trajectory(43))


def test_registry_round_trip():
    env = envs.make_env("chain", {"n_states": 4, "horizon": 6})
    assert env.n_states == 4 and env.horizon == 6
    chain, grid, point = (envs.make_env(name) for name in ("chain", "grid", "point_mass"))
    assert (chain.n_states, chain.horizon, grid.size, grid.horizon, point.horizon) == (
        8, 12, 4, 16, 32)
    with pytest.raises(ValueError, match="unknown environment"):
        envs.make_env("mujoco")


@pytest.mark.parametrize("name,params,message", [
    # a misspelled parameter used to build the default-sized env
    ("chain", {"n_state": 5}, "unexpected keyword argument 'n_state'"),
    ("chain", {"n_states": 5.0}, "n_states must be an integer"),
    ("grid", {"size": True}, "size must be an integer"),
    ("grid", {"horizon": "16"}, "horizon must be an integer"),
    ("point_mass", {"horizon": 2.5}, "horizon must be an integer"),
    ("point_mass", {"size": 4}, "unexpected keyword argument 'size'"),
])
def test_registry_rejects_bad_parameters(name, params, message):
    with pytest.raises(ValueError, match=message):
        envs.make_env(name, params)
