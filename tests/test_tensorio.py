import struct

import numpy as np
import pytest

from calad.cli import main as cli_main
from calad.errors import DataError
from calad.tensorio import (load_tensor, read_pgm, save_tensor, write_pgm,
                            write_ppm)


class TestRawTensor:
    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4), (1, 2, 3, 4)])
    def test_round_trip(self, tmp_path, shape):
        rng = np.random.default_rng(0)
        # float32-representable values survive exactly
        arr = rng.normal(size=shape).astype(np.float32).astype(np.float64)
        path = tmp_path / "t.calt"
        save_tensor(path, arr)
        back = load_tensor(path)
        assert back.shape == shape
        assert back.dtype == np.float32  # as stored; callers cast where they compute
        assert np.array_equal(back, arr)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.calt"
        save_tensor(path, np.zeros((2, 3), dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"CALT"
        assert raw[4:6] == (1).to_bytes(2, "little")          # version
        assert raw[6:10] == (0).to_bytes(4, "little")         # dtype tag f32
        assert raw[10:14] == (2).to_bytes(4, "little")        # rank
        assert raw[14:18] == (2).to_bytes(4, "little")        # dim 0
        assert raw[18:22] == (3).to_bytes(4, "little")        # dim 1
        assert len(raw) == 22 + 2 * 3 * 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.calt"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(DataError):
            load_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.calt"
        save_tensor(path, np.zeros(4))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataError):
            load_tensor(path)

    @pytest.mark.parametrize("word", ["010080ff", "0000c07f", "0000807f"],
                             ids=["signalling-nan", "quiet-nan", "inf"])
    def test_non_finite_payload_rejected(self, tmp_path, word):
        # a signalling NaN would also raise numpy's invalid-cast warning
        path = tmp_path / "t.calt"
        save_tensor(path, np.zeros(3))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8] + bytes.fromhex(word) + raw[-4:])
        with pytest.raises(DataError, match="payload value 1 is not finite"):
            load_tensor(path)


CALT = (b"CALT" + struct.pack("<HII", 1, 0, 2) + struct.pack("<2I", 2, 3)
        + bytes(2 * 3 * 4))
PGM = b"P5\n4 3\n255\n" + bytes(4 * 3)


class TestTruncatedInputs:
    @pytest.mark.parametrize("name", ["header_12_bytes.calt", "dims_cut.calt",
                                      "dims_overflow.calt", "short_body.pgm",
                                      "header_cut.pgm", "no_maxval.pgm",
                                      "negative_size.pgm"])
    def test_data_error(self, tmp_path, name):
        raw = {"header_12_bytes.calt": CALT[:12], "dims_cut.calt": CALT[:18],
               # 2**64 elements wrap to 0 in int64, matching an empty payload
               "dims_overflow.calt": (b"CALT" + struct.pack("<HII", 1, 0, 4)
                                      + struct.pack("<4I", *[2 ** 16] * 4)),
               "short_body.pgm": PGM[:-5], "header_cut.pgm": PGM[:5],
               "no_maxval.pgm": PGM[:7],
               "negative_size.pgm": b"P5\n-3 -3\n255\n" + bytes(9)}[name]
        path = tmp_path / name
        path.write_bytes(raw)
        reader = load_tensor if name.endswith(".calt") else read_pgm
        with pytest.raises(DataError):
            reader(path)

    def test_run_on_truncated_tensor_exits_2(self, tmp_path, capsys):
        normal = tmp_path / "normal"
        normal.mkdir()
        (normal / "tile_000.calt").write_bytes(CALT[:12])
        rc = cli_main(["run", "--normal", str(normal), "--masks-dir", str(normal),
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "truncated" in capsys.readouterr().err


class TestPgm:
    def test_round_trip(self, tmp_path):
        mask = np.zeros((5, 7), dtype=np.uint8)
        mask[1:3, 2:5] = 1
        path = tmp_path / "m.pgm"
        write_pgm(path, mask)
        back = read_pgm(path)
        assert np.array_equal(back, mask)

    def test_binary_levels(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pgm(path, np.array([[0, 5], [255, 0]]))
        raw = path.read_bytes()
        body = raw.split(b"255\n", 1)[1]
        assert set(body) <= {0, 255}

    def test_header(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pgm(path, np.zeros((3, 4)))
        assert path.read_bytes().startswith(b"P5\n4 3\n255\n")


class TestPpm:
    def test_header_and_size(self, tmp_path):
        img = np.linspace(0, 1, 2 * 3 * 3).reshape(3, 2, 3)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n3 2\n255\n")
        assert len(raw) - len(b"P6\n3 2\n255\n") == 2 * 3 * 3

    def test_grayscale_replicates_channels(self, tmp_path):
        img = np.full((1, 2, 2), 0.5)
        path = tmp_path / "g.ppm"
        write_ppm(path, img)
        body = path.read_bytes().split(b"255\n", 1)[1]
        assert len(set(body)) == 1

    def test_rejects_bad_channel_count(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 4, 4)))
