"""RunConfig: binary layout, text grammar, value checks and how the CLI
reports a bad config or grid. Only parsing runs here, never extraction."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglg.cli import main
from lglg.config import CONFIG_BLOCK_SIZE, RunConfig, parse_config_text
from lglg.errors import ConfigError
from lglg.formats import parse_grid_file

KEYPOINT_CONFIG = RunConfig(
    mode="keypoint", directions=6, scales=3, sigma_pi=0.75, k_max_pi=0.4, spacing=1.5,
    window_len=7, gamma=0.3, dog_sigma_inner=0.8, dog_sigma_outer=2.5, contrast_alpha=0.2,
    contrast_tau=8.0, block_size=11, keypoint_count=5, ridge_scale=1e-3, k_requested=40,
)

KEYS = [f.name for f in dataclasses.fields(RunConfig)]
VALUES = ["0", "1", "2", "-1", "3.5", "1e400", "4294967296", "nan", "inf", "-inf",
          "grid", "keypoint", "", "x"]


def key_value_text(sep):
    """Lines built from real and bogus keys, edge values and free text."""
    line = st.one_of(
        st.builds(
            lambda k, v: f"{k}={v}",
            st.sampled_from(KEYS + ["bogus", ""]),
            st.lists(st.one_of(st.sampled_from(VALUES), st.text(max_size=5)), max_size=3)
            .map(sep.join),
        ),
        st.text(max_size=20),
    )
    return st.lists(line, max_size=6).map("\n".join)


class TestBinaryLayout:
    def test_block_size(self):
        assert CONFIG_BLOCK_SIZE == 97

    def test_default_fingerprint(self):
        assert RunConfig().feature_fingerprint() == (
            "7149f5f9ffe4743eaa668ec906ec5a4f9922458c7f323fc64f71ad6e19211f7a"
        )

    def test_fingerprint_ignores_k_requested(self):
        assert RunConfig(k_requested=5).feature_fingerprint() == RunConfig().feature_fingerprint()

    @pytest.mark.parametrize("config, expected", [
        (RunConfig(),
         "0800000004000000000000000000f03f000000000000e03fcd3b7f669ea0f63f090000009a9999999999"
         "c93f000000000000f03f00000000000000409a9999999999b93f0000000000002440000f000000150000"
         "002d431cebe2361a3fac040000"),
        (KEYPOINT_CONFIG,
         "0600000003000000000000000000e83f9a9999999999d93f000000000000f83f07000000333333333333"
         "d33f9a9999999999e93f00000000000004409a9999999999c93f0000000000002040010b000000050000"
         "00fca9f1d24d62503f28000000"),
    ])
    def test_pinned_pack(self, config, expected):
        assert config.pack().hex() == expected
        assert RunConfig.unpack(config.pack()) == config

    def test_unknown_mode_code(self):
        blob = bytearray(RunConfig().pack())
        blob[76] = 7  # the mode byte
        with pytest.raises(ConfigError, match="unknown mode code 7"):
            RunConfig.unpack(bytes(blob))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.binary(min_size=CONFIG_BLOCK_SIZE, max_size=CONFIG_BLOCK_SIZE),
        st.builds(
            lambda base, pos, patch: (base[:pos] + patch + base[pos + len(patch):])[:CONFIG_BLOCK_SIZE],
            st.sampled_from([RunConfig().pack(), KEYPOINT_CONFIG.pack()]),
            st.integers(0, CONFIG_BLOCK_SIZE - 1),
            st.binary(min_size=1, max_size=8),
        ),
    ))
    def test_unpack_rejects_or_round_trips(self, blob):
        try:
            config = RunConfig.unpack(blob)
        except ConfigError:
            return
        assert config.pack() == blob


class TestTextGrammar:
    def test_comments_and_blank_lines(self):
        config = parse_config_text("# header\n\nblock_size = 11  # smaller\nmode=keypoint\n")
        assert config == RunConfig(block_size=11, mode="keypoint")

    @pytest.mark.parametrize("text, message", [
        ("block_size fifteen\n", "<config>:1: expected key=value"),
        ("\nbogus=1\n", "<config>:2: unknown key 'bogus'"),
        ("block_size=1.5\n", "bad value for block_size"),
    ])
    def test_errors(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text)

    @pytest.mark.parametrize("line", [
        "sigma_pi=nan", "k_max_pi=-inf", "spacing=inf", "dog_sigma_inner=nan",
        "ridge_scale=nan", "contrast_tau=nan", "gamma=1e400",
    ])
    def test_non_finite_rejected(self, line):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config_text(line)

    @pytest.mark.parametrize("line", ["k_requested=1", "k_requested=4294967296"])
    def test_k_requested_range(self, line):
        with pytest.raises(ConfigError, match="k_requested"):
            parse_config_text(line)

    @settings(max_examples=300, deadline=None)
    @given(key_value_text(""))
    def test_config_text_fuzz(self, text):
        try:
            parse_config_text(text)
        except ConfigError:
            pass


class TestGridFile:
    def test_values_in_file_order(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("# sweep\nblock_size=11, 15\nmode=grid,keypoint\nsigma_pi=1\n")
        assert parse_grid_file(str(grid)) == [
            ("block_size", [11, 15]), ("mode", ["grid", "keypoint"]), ("sigma_pi", [1.0]),
        ]

    @pytest.mark.parametrize("text, message", [
        ("block_size=11\nbogus=1,2\n", r"grid.txt:2: unknown key 'bogus'"),
        ("block_size=11\n\nblock_size=15\n", r"grid.txt:3: block_size given twice"),
        ("block_size=,\n", r"grid.txt:1: no values for block_size"),
    ])
    def test_errors(self, tmp_path, text, message):
        grid = tmp_path / "grid.txt"
        grid.write_text(text)
        with pytest.raises(ConfigError, match=message):
            parse_grid_file(str(grid))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(key_value_text(",").map(str.encode), st.binary(max_size=40)))
    def test_grid_fuzz(self, tmp_path_factory, data):
        grid = tmp_path_factory.getbasetemp() / "fuzz_grid.txt"
        grid.write_bytes(data)
        try:
            parse_grid_file(str(grid))
        except ConfigError:
            pass


def _config_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert err.count("\n") == 1
    return err


class TestCliReportsOneLine:
    @pytest.mark.parametrize("line", [
        "sigma_pi=nan", "spacing=inf", "dog_sigma_inner=nan", "ridge_scale=nan",
        "contrast_tau=nan", "k_requested=1",
    ])
    def test_enroll_bad_config_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code = main(["enroll", "--config", str(cfg), "--manifest", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "m.bin")])
        assert code == 2
        assert line.split("=")[0] in _config_error_line(capsys)

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"block_size=\xff\n")
        code = main(["enroll", "--config", str(cfg), "--manifest", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "m.bin")])
        assert code == 2
        assert "not UTF-8" in _config_error_line(capsys)

    @pytest.mark.parametrize("text", [
        "bogus=1,2\n", "block_size=11\nblock_size=15\n", "sigma_pi=1.0,nan\n",
    ])
    def test_sweep_bad_grid_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("")
        grid = tmp_path / "grid.txt"
        grid.write_text(text)
        code = main(["sweep", "--config", str(cfg), "--grid", str(grid),
                     "--gallery-manifest", str(tmp_path / "none.csv"),
                     "--probe-manifest", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "sweep.csv")])
        assert code == 2
        _config_error_line(capsys)
        assert not (tmp_path / "sweep.csv").exists()
