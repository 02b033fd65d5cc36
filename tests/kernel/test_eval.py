"""Unit tests for flat-array kernel evaluation."""

from repro.core.context import build_context
from repro.datalog import parse_atom, parse_program
from repro.datalog.atoms import atom
from repro.games.winmove import figure4a_edges, solve_game, win_move_program
from repro.kernel import (
    ComponentKernel,
    compile_context,
    decode_model,
    evaluate_compiled,
    get_kernel,
    kernel_model,
    kernel_well_founded,
)
from repro.obs import TraceRecorder

UNKNOWN, TRUE, FALSE = 0, 1, 2


def _truth(text: str):
    compiled = compile_context(build_context(parse_program(text)))
    truth, methods, stages, decrements = evaluate_compiled(compiled)
    return compiled, truth


def _code(compiled, truth, name: str) -> int:
    return truth[compiled.table.id_of(parse_atom(name))]


class TestEvaluateCompiled:
    def test_horn_closure(self):
        compiled, truth = _truth("a. b :- a. c :- b. d :- missing.")
        assert _code(compiled, truth, "a") == TRUE
        assert _code(compiled, truth, "b") == TRUE
        assert _code(compiled, truth, "c") == TRUE
        assert _code(compiled, truth, "d") == FALSE
        assert _code(compiled, truth, "missing") == FALSE

    def test_stratified_negation(self):
        compiled, truth = _truth("p :- not q. q :- r.")
        assert _code(compiled, truth, "p") == TRUE
        assert _code(compiled, truth, "q") == FALSE
        assert _code(compiled, truth, "r") == FALSE

    def test_undefined_triangle_stays_unknown(self):
        compiled, truth = _truth("a :- not b. b :- not c. c :- not a.")
        for name in ("a", "b", "c"):
            assert _code(compiled, truth, name) == UNKNOWN

    def test_self_negation_is_undefined(self):
        compiled, truth = _truth("p :- not p.")
        assert _code(compiled, truth, "p") == UNKNOWN

    def test_unfounded_positive_loop_is_false(self):
        compiled, truth = _truth("p :- q. q :- p.")
        assert _code(compiled, truth, "p") == FALSE
        assert _code(compiled, truth, "q") == FALSE

    def test_figure4a_game_statuses(self):
        edges = figure4a_edges()
        oracle = solve_game(edges)
        model = kernel_model(win_move_program(edges))
        for node in oracle.won:
            assert model.is_true(atom("wins", node)), node
        for node in oracle.lost:
            assert model.is_false(atom("wins", node)), node
        for node in oracle.drawn:
            assert model.is_undefined(atom("wins", node)), node


class TestKernelResult:
    def test_method_counts_and_statistics(self):
        result = kernel_well_founded(
            parse_program("a. b :- a. p :- not q. win :- not lose. lose :- not win.")
        )
        counts = result.method_counts()
        assert counts["alternating"] == 1  # the win/lose loop
        assert result.component_count == sum(counts.values())
        stats = result.statistics()
        assert stats["components"] == result.component_count
        assert stats["kernel_bytes"] > 0
        assert not result.is_total

    def test_tracing_counters_and_spans(self):
        recorder = TraceRecorder()
        result = kernel_well_founded(
            build_context(parse_program("p :- not q. q :- r. win :- not lose. lose :- not win.")),
            recorder=recorder,
        )
        names = [span.name for span in recorder.spans]
        assert names == ["compile", "evaluate", "assemble"]
        totals = recorder.counter_totals()
        assert totals["kernel.atoms"] == result.compiled.n_atoms
        assert totals["components.total"] == result.component_count
        assert totals["components.alternating"] == 1
        assert "kernel.stages" in totals
        assert "kernel.decrements" in totals


class TestComponentKernel:
    def test_component_at_a_time_matches_batch(self):
        text = "r. q :- r. p :- not q. win :- q, not lose. lose :- not win."
        context = build_context(parse_program(text))
        compiled = get_kernel(context)
        batch = kernel_well_founded(context).model

        kernel = ComponentKernel(compiled)
        kernel.is_fact[compiled.table.id_of(parse_atom("r"))] = 1
        for comp in range(compiled.n_components):
            comp_true, comp_false, method, rules, stages, decrements = (
                kernel.solve_component(comp)
            )
            for atom_id in comp_true:
                kernel.truth[atom_id] = TRUE
            for atom_id in comp_false:
                kernel.truth[atom_id] = FALSE
        assert decode_model(compiled, kernel.truth) == batch

    def test_solve_all_matches_batch(self):
        text = "r. q :- r. p :- not q. win :- q, not lose. lose :- not win."
        context = build_context(parse_program(text))
        compiled = get_kernel(context)
        kernel = ComponentKernel(compiled)
        kernel.is_fact[compiled.table.id_of(parse_atom("r"))] = 1
        truth = kernel.truth
        methods, stages, _ = kernel.solve_all()
        assert kernel.truth is truth  # one vector for the kernel's lifetime
        assert decode_model(compiled, kernel.truth) == kernel_well_founded(context).model
        assert methods == {"horn": 3, "alternating": 1}
        assert stages >= 4

    def test_fact_flip_moves_downstream_components(self):
        compiled = get_kernel(build_context(parse_program("p :- not q.")))
        kernel = ComponentKernel(compiled)
        p = compiled.table.id_of(parse_atom("p"))
        q = compiled.table.id_of(parse_atom("q"))
        kernel.solve_all()
        assert (kernel.truth[p], kernel.truth[q]) == (TRUE, FALSE)
        kernel.is_fact[q] = 1
        kernel.solve_all()
        assert (kernel.truth[p], kernel.truth[q]) == (FALSE, TRUE)

    def test_decode_adds_extra_true_atoms(self):
        compiled = get_kernel(build_context(parse_program("p :- not q.")))
        kernel = ComponentKernel(compiled)
        kernel.solve_all()
        stranger = parse_atom("stranger(1)")
        model = decode_model(compiled, kernel.truth, {stranger})
        assert model.is_true(stranger)
        assert model.is_true(parse_atom("p"))
        assert model.is_false(parse_atom("q"))
