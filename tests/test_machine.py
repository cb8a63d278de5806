"""Unit tests for the machine configuration."""

import pytest

from repro.isa.opcodes import OpClass
from repro.machine import (
    BACKEND_STAGES,
    DEFAULT_MACHINE,
    MACHINE_PRESETS,
    MachineConfig,
    MachineMemo,
    format_size,
    machine_from_spec,
    parse_size,
)


class TestMachineConfig:
    def test_default_matches_paper_table2(self):
        machine = DEFAULT_MACHINE
        assert machine.width == 4
        assert machine.pipeline_stages == 9
        assert machine.frequency_mhz == 1000
        assert machine.l1i_size == 32 * 1024
        assert machine.l2_size == 512 * 1024
        assert machine.l2_associativity == 8
        assert machine.branch_predictor == "global_1kb"

    def test_frontend_depth(self):
        assert MachineConfig(pipeline_stages=5).frontend_depth == 2
        assert MachineConfig(pipeline_stages=7).frontend_depth == 4
        assert MachineConfig(pipeline_stages=9).frontend_depth == 6

    def test_latency_conversion_to_cycles(self):
        machine = MachineConfig(frequency_mhz=1000, l2_ns=10.0, memory_ns=80.0)
        assert machine.cycle_ns == pytest.approx(1.0)
        assert machine.l2_hit_cycles == 10
        assert machine.memory_cycles == 80
        slower = machine.with_(frequency_mhz=600)
        # At 600 MHz the same 10 ns L2 is only 6 cycles away.
        assert slower.l2_hit_cycles == 6
        assert slower.memory_cycles == 48

    def test_execute_latency(self):
        machine = MachineConfig(mul_latency=4, div_latency=20)
        assert machine.execute_latency(OpClass.INT_MUL) == 4
        assert machine.execute_latency(OpClass.INT_DIV) == 20
        assert machine.execute_latency(OpClass.INT_ALU) == 1
        assert machine.execute_latency(OpClass.LOAD) == 1

    def test_memory_hierarchy_config(self):
        machine = MachineConfig()
        hierarchy = machine.memory_hierarchy_config()
        assert hierarchy.l1i.size == machine.l1i_size
        assert hierarchy.l2.associativity == machine.l2_associativity
        assert hierarchy.l2_hit_cycles == machine.l2_hit_cycles
        assert hierarchy.memory_cycles == machine.memory_cycles

    def test_with_override(self):
        machine = MachineConfig().with_(width=2, name="narrow")
        assert machine.width == 2
        assert machine.name == "narrow"
        # Original is unchanged (frozen dataclass semantics).
        assert MachineConfig().width == 4

    def test_describe_mentions_key_parameters(self):
        text = MachineConfig().describe()
        assert "4-wide" in text and "9-stage" in text and "512KB" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(width=0)
        with pytest.raises(ValueError):
            MachineConfig(pipeline_stages=4)
        with pytest.raises(ValueError):
            MachineConfig(frequency_mhz=0)
        with pytest.raises(ValueError):
            MachineConfig(mul_latency=0)

    def test_l1_hit_cycles_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="l1_hit_cycles"):
            MachineConfig(l1_hit_cycles=0)

    def test_tlb_entries_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="tlb_entries"):
            MachineConfig(tlb_entries=0)

    @pytest.mark.parametrize("field", ["l2_ns", "memory_ns", "tlb_miss_ns"])
    def test_latency_in_ns_must_not_be_negative(self, field):
        with pytest.raises(ValueError, match=field):
            MachineConfig(**{field: -0.5})
        assert getattr(MachineConfig(**{field: 0.0}), field) == 0.0

    @pytest.mark.parametrize("field,value", [
        ("width", 2.0), ("width", True), ("pipeline_stages", 9.5),
        ("l2_size", 1.5e6), ("tlb_entries", "32"),
    ])
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            MachineConfig(**{field: value})

    @pytest.mark.parametrize("field", ["l2_ns", "memory_ns", "tlb_miss_ns"])
    def test_float_fields_accept_integers(self, field):
        assert getattr(MachineConfig(**{field: 12}), field) == 12

    def test_backend_stages_constant(self):
        assert BACKEND_STAGES == 3

    def test_minimum_latency_is_one_cycle(self):
        # Even a very fast clock cannot make the L2 round-trip free.
        machine = MachineConfig(frequency_mhz=1000, l2_ns=0.1)
        assert machine.l2_hit_cycles == 1

    def test_name_is_a_label_not_an_identity(self):
        # Regression: the name used to participate in equality/hashing, so
        # two identical geometries with different labels were profiled
        # twice (distinct session memo and artifact-cache keys).
        a = MachineConfig(name="baseline")
        b = MachineConfig(name="same-geometry-different-label")
        assert a == b
        assert hash(a) == hash(b)
        assert len({a: 1, b: 2}) == 1
        # A genuine geometry change still separates them.
        assert a != a.with_(l2_size=1024 * 1024)


class TestParseSize:
    @pytest.mark.parametrize("text,expected", [
        (65536, 65536),
        ("64", 64),
        ("64B", 64),
        ("32k", 32 * 1024),
        ("32KB", 32 * 1024),
        ("32KiB", 32 * 1024),
        ("1MB", 1024 * 1024),
        ("0.5MB", 512 * 1024),
        ("1mb", 1024 * 1024),
        ("2GB", 2 * 1024 ** 3),
        (" 128 KB ", 128 * 1024),
    ])
    def test_accepted_forms(self, text, expected):
        assert parse_size(text) == expected

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="malformed size"):
            parse_size("lots")
        with pytest.raises(ValueError, match="unknown size unit"):
            parse_size("3 furlongs")
        with pytest.raises(ValueError, match="whole number"):
            parse_size("0.3KB")
        with pytest.raises(TypeError):
            parse_size(1.5)
        with pytest.raises(TypeError):
            parse_size(True)


class TestFormatSize:
    @pytest.mark.parametrize("value,expected", [
        (0, "0B"),
        (1, "1B"),
        (512, "512B"),
        (1023, "1023B"),
        (1024, "1KB"),
        (1536, "1536B"),       # not a whole KB: falls back to bytes
        (32 * 1024, "32KB"),
        (512 * 1024, "512KB"),
        (1024 * 1024, "1MB"),
        (3 * 1024 ** 2 // 2, "1536KB"),
        (2 * 1024 ** 3, "2GB"),
    ])
    def test_rendered_forms(self, value, expected):
        assert format_size(value) == expected

    @pytest.mark.parametrize("value", [
        0, 1, 63, 64, 1023, 1024, 1536, 4096, 32 * 1024, 512 * 1024,
        1024 * 1024 - 1, 1024 * 1024, 7 * 1024 ** 2, 1024 ** 3,
        5 * 1024 ** 3, 123456789,
    ])
    def test_round_trips_through_parse_size(self, value):
        assert parse_size(format_size(value)) == value

    def test_preset_sizes_round_trip(self):
        for name in MACHINE_PRESETS.names():
            machine = machine_from_spec(name)
            for size in (machine.l1i_size, machine.l1d_size, machine.l2_size,
                         machine.line_size, machine.page_size):
                assert parse_size(format_size(size)) == size

    def test_describe_uses_size_strings(self):
        assert "L2 512KB" in DEFAULT_MACHINE.describe()
        assert "L2 1MB" in DEFAULT_MACHINE.with_(l2_size=1024 ** 2).describe()

    def test_rejects_non_int_and_negative(self):
        with pytest.raises(TypeError):
            format_size("1MB")
        with pytest.raises(TypeError):
            format_size(True)
        with pytest.raises(ValueError):
            format_size(-1)


class TestMachineSpecs:
    def test_preset_registry_contains_paper_default(self):
        assert "paper_default" in MACHINE_PRESETS
        assert machine_from_spec("paper_default") == DEFAULT_MACHINE
        # The alias resolves to the same configuration.
        assert machine_from_spec("default") == DEFAULT_MACHINE

    def test_every_preset_resolves(self):
        for name in MACHINE_PRESETS.names():
            machine = machine_from_spec(name)
            assert isinstance(machine, MachineConfig)

    def test_overrides_with_size_strings(self):
        machine = machine_from_spec({
            "preset": "paper_default",
            "l2_size": "1MB",
            "branch_predictor": "hybrid_3.5kb",
        })
        assert machine.l2_size == 1024 * 1024
        assert machine.branch_predictor == "hybrid_3.5kb"
        assert machine.width == DEFAULT_MACHINE.width

    def test_machineconfig_passes_through(self):
        machine = MachineConfig(width=2)
        assert machine_from_spec(machine) is machine

    def test_unknown_preset_lists_known(self):
        with pytest.raises(KeyError, match="paper_default"):
            machine_from_spec("warp_drive")

    def test_unknown_parameter_is_a_clear_error(self):
        with pytest.raises(ValueError, match="unknown machine parameters"):
            machine_from_spec({"l2_sise": "1MB"})


class TestMachineMemo:
    def test_answers_each_machine_in_order(self):
        calls = []

        def derive(machine):
            calls.append(machine)
            return machine.width * 10

        memo = MachineMemo(derive)
        narrow, wide = MachineConfig(width=1), MachineConfig(width=4)
        assert memo([narrow, wide, narrow]) == [10, 40, 10]
        assert memo([wide]) == [40]
        assert calls == [narrow, wide]  # once per object
        # An equal machine is another object: derived again.
        assert memo([MachineConfig(width=1)]) == [10]
        assert len(calls) == 3

    def test_full_memo_is_emptied_not_wrong(self):
        memo = MachineMemo(lambda machine: machine.width, maxsize=2)
        machines = [MachineConfig(width=width) for width in range(1, 6)]
        assert memo(machines) == [1, 2, 3, 4, 5]
        assert memo(machines[::-1]) == [5, 4, 3, 2, 1]

    def test_concurrent_callers_always_get_their_machines_values(self):
        """Threads sharing one small memo (so it is emptied while others
        read it) never see another machine's value, even as short-lived
        machines are freed and their ids reused."""
        import sys
        import threading

        memo = MachineMemo(lambda machine: machine.width, maxsize=8)
        errors = []

        def hammer(seed: int) -> None:
            for round_ in range(300):
                machines = [MachineConfig(width=1 + (seed + round_ + k) % 7)
                            for k in range(5)]
                if memo(machines) != [m.width for m in machines]:
                    errors.append(seed)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(seed,))
                       for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
        assert errors == []
