import pytest

from gbsdeform import (
    ExpansionBounds,
    GenerationError,
    RandomGraphSpec,
    analyze,
    betti_number,
    random_graph,
    rigidity_trial,
)

from strategies import assert_valid


def test_generator_is_reproducible():
    spec = RandomGraphSpec(num_vertices=4, num_edges=5, index_range=(2, 9))
    assert random_graph(spec, 1) == random_graph(spec, 1)
    assert random_graph(spec, 1) != random_graph(spec, 2)


def test_generator_respects_spec():
    spec = RandomGraphSpec(num_vertices=4, num_edges=6, index_range=(2, 9))
    for seed in range(30):
        g = random_graph(spec, seed)
        assert_valid(g)
        assert len(g.vertices) == 4 and len(g.edges) == 6
        assert betti_number(g) == 3
        for e in g.edges:
            assert 2 <= abs(e.i0) <= 9 and 2 <= abs(e.i1) <= 9


def test_generator_requirements():
    reduced_spec = RandomGraphSpec(num_vertices=3, num_edges=3, index_range=(1, 9),
                                   require="reduced")
    for seed in range(10):
        assert analyze(random_graph(reduced_spec, seed)).reduced
    ssf_spec = RandomGraphSpec(num_vertices=2, num_edges=1, index_range=(2, 9),
                               require="strongly_slide_free")
    g = random_graph(ssf_spec, 1)
    e = g.edges[0]
    if not e.is_loop:
        assert len(g.ends_at(e.v0)) == 1 and len(g.ends_at(e.v1)) == 1
    else:
        assert e.i1 % e.i0 != 0 and e.i0 % e.i1 != 0
    report = analyze(g)
    assert report.strongly_slide_free and report.reduced


def test_generator_impossible_specs():
    with pytest.raises(GenerationError, match="cannot be connected"):
        RandomGraphSpec(num_vertices=3, num_edges=1)
    # all-unit indices can never be strongly slide-free with two ends about
    spec = RandomGraphSpec(num_vertices=2, num_edges=2, index_range=(1, 1),
                           require="strongly_slide_free")
    with pytest.raises(GenerationError, match="retries|tries"):
        random_graph(spec, 0)


@pytest.mark.parametrize("kwargs,message", [
    (dict(num_vertices=0, num_edges=0), "need at least one vertex"),
    (dict(num_vertices=2, num_edges=1, index_range=(0, 3)),
     "index range must satisfy 1 <= lo <= hi"),
    (dict(num_vertices=2, num_edges=1, require="bogus"), "unknown requirement 'bogus'"),
])
def test_spec_rejects_bad_fields(kwargs, message):
    with pytest.raises(ValueError) as info:
        RandomGraphSpec(**kwargs)
    assert str(info.value) == message


def test_rigidity_trial_on_a_point_stops_at_once():
    # A point has no legal move, so the trial applies none and still passes.
    trial = rigidity_trial(RandomGraphSpec(1, 0, require="strongly_slide_free"), 3, 0)
    assert trial.passed
    assert trial.moves == ()
    assert trial.start == trial.scrambled == trial.reduced


def test_rigidity_trials_pass_and_replay():
    for seed in range(30):
        nv = 2 + seed % 4
        spec = RandomGraphSpec(num_vertices=nv, num_edges=nv - 1 + seed % 2,
                               index_range=(2, 9), require="strongly_slide_free")
        trial = rigidity_trial(spec, num_moves=8, seed=seed,
                               bounds=ExpansionBounds(max_n=9))
        assert trial.passed, (seed, trial.start, trial.moves)
        for g in (trial.start, trial.scrambled, trial.reduced):   # reduced: reduce_graph's output
            assert_valid(g)
        again = rigidity_trial(spec, num_moves=8, seed=seed,
                               bounds=ExpansionBounds(max_n=9))
        assert again.moves == trial.moves
        assert again.start == trial.start


def test_rigidity_trial_zero_moves():
    spec = RandomGraphSpec(num_vertices=3, num_edges=3, index_range=(2, 9),
                           require="strongly_slide_free")
    trial = rigidity_trial(spec, num_moves=0, seed=5)
    assert trial.passed
    assert trial.moves == ()
    assert trial.reduced == trial.start


def test_rigidity_start_is_reduced_and_slide_free():
    spec = RandomGraphSpec(num_vertices=4, num_edges=4, index_range=(2, 9))
    trial = rigidity_trial(spec, num_moves=2, seed=9)
    report = analyze(trial.start)
    assert report.strongly_slide_free
    assert report.reduced
