import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import pdm_decimate_oracle, pdm_modulate_oracle, sine_fit

from memsarray import acquisition as acq
from memsarray.errors import ProtocolError


def modulate_decimate(wave):
    bits, _ = acq.pdm_modulate(wave)
    return acq.pdm_decimate(bits) * (1.0 / acq.PCM_FULL_SCALE_CODE)


def make_sine(amplitude, freq, duration):
    t = np.arange(int(acq.PDM_RATE * duration)) / acq.PDM_RATE
    return amplitude * np.sin(2 * np.pi * freq * t)


@pytest.fixture(scope="module")
def modulator_plane():
    """An FPGA's (200, 30412) bits of 200 phase-shifted 0.5 tones at 1 kHz, modulated in lockstep."""
    t = np.arange(30412) / acq.PDM_RATE
    offsets = 2 * np.pi * np.arange(acq.CHANNELS_PER_FPGA) / acq.CHANNELS_PER_FPGA
    wave = 0.5 * np.sin(2 * np.pi * 1000.0 * t[:, None] + offsets)
    return acq.pdm_modulate_channels([wave], len(t))[0]


def random_bits(rng, n_bits=4096):
    """An FPGA's (200, n_bits) bits, drawn channel by channel."""
    return np.array([rng.integers(0, 2, n_bits, dtype=np.uint8) for _ in range(acq.CHANNELS_PER_FPGA)], dtype=bool)


class TestModulator:
    def test_zero_input_balanced(self):
        bits, _ = acq.pdm_modulate(np.zeros(64_000))
        mean = (bits.astype(float) * 2 - 1).mean()
        assert abs(mean) <= 1e-3

    def test_full_scale_dc(self):
        y = modulate_decimate(np.ones(200_000))
        level = y[2_000:-200].mean()
        assert abs(20 * np.log10(level)) <= 0.1

    def test_clipping_flagged(self):
        _, clipped = acq.pdm_modulate(1.5 * np.ones(10_000))
        assert clipped
        _, clipped = acq.pdm_modulate(0.5 * np.ones(10_000))
        assert not clipped

    def test_empty_blocks(self):
        # the clip test reduces each block's columns, and an empty block has nothing to clip
        bits, clipped = acq.pdm_modulate(np.zeros(0))
        assert bits.shape == (0,) and not clipped
        bits, clipped = acq.pdm_modulate_channels([np.zeros((0, 3)), np.full((4, 3), 0.2)], 4)
        assert bits.shape == (3, 4) and not clipped.any()

    @pytest.mark.parametrize("tick", [100, 2500])
    def test_nan_rejected(self, tick):
        # a NaN has no PDM code: the loop would read it as full negative scale from then on, so both
        # forms name its channel and tick, also when it falls in a later block; +-inf clips as before
        x = np.full((4000, 3), 0.2)
        x[tick, 1] = np.nan
        x[50, 2] = np.inf
        with pytest.raises(ValueError, match=f"NaN sample in channel 0 at tick {tick}$"):
            acq.pdm_modulate(x[:, 1])
        with pytest.raises(ValueError, match=f"NaN sample in channel 1 at tick {tick}$"):
            acq.pdm_modulate_channels((x[a : a + 1024] for a in range(0, 4000, 1024)), 4000)
        x[tick, 1] = -np.inf
        for c in (1, 2):
            assert acq.pdm_modulate(x[:, c])[1]
        assert list(acq.pdm_modulate_channels((x[a : a + 1024] for a in range(0, 4000, 1024)), 4000)[1]) == [
            False, True, True
        ]

    def test_noise_shaping(self):
        # in-band noise after decimation sits far below the raw shaped noise
        wave = make_sine(0.1, 1000.0, 0.25)
        bits, _ = acq.pdm_modulate(wave)
        raw_amp, raw_resid = sine_fit(bits[10_000:500_000].astype(float) * 2 - 1, 1000.0, acq.PDM_RATE)
        out = acq.pdm_decimate(bits) * (1.0 / acq.PCM_FULL_SCALE_CODE)
        amp, resid = sine_fit(out[1_000:-1_000], 1000.0, acq.PCM_RATE)
        out_of_band_before = np.mean(raw_resid**2)
        in_band_after = np.mean(resid**2)
        assert 10 * np.log10(out_of_band_before / in_band_after) >= 40.0

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 3000),
        amplitude=st.floats(0.0, 1.5),
        seed=st.integers(0, 2**32 - 1),
        specials=st.lists(
            st.tuples(
                st.floats(0.0, 1.0, exclude_max=True),
                st.sampled_from([np.nan, np.inf, -np.inf]),
                st.integers(0, 2),
            ),
            max_size=3,
        ),
        channels=st.sampled_from([1, 3]),
        block=st.integers(3, 1000).filter(lambda b: 8 % b),
        spike=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_bits_match_per_element_loop(self, n, amplitude, seed, specials, channels, block, spike):
        # one channel alone, and `channels` in lockstep fed as blocks of `block` ticks
        assume(n == 0 or n % block)
        rng = np.random.default_rng(seed)
        t = np.arange(n) / acq.PDM_RATE
        x = np.empty((channels, n))
        for c in range(channels):
            x[c] = amplitude * np.sin(2 * np.pi * rng.uniform(20.0, 20_000.0) * t + rng.uniform(0.0, 2 * np.pi))
            x[c] += 0.01 * rng.standard_normal(n)
        for where, value, c in specials:
            if n:
                x[c % channels, int(where * n)] = value  # in one channel only
        if channels > 1 and n:
            x[-1, int(spike * n)] = 1.25  # clips the last channel in one block only
        xt = x.T
        blocks = (xt[a : a + block] for a in range(0, max(n, 1), block))
        nan = np.argwhere(np.isnan(xt))
        if len(nan):
            # a NaN has no PDM code: the first one in time raises, in whichever block it falls
            tick, channel = nan[0]
            with pytest.raises(ValueError, match=f"channel {channel} at tick {tick}$"):
                acq.pdm_modulate_channels(blocks, n)
            for c in np.unique(nan[:, 1]):
                with pytest.raises(ValueError, match=f"channel 0 at tick {np.flatnonzero(np.isnan(x[c]))[0]}$"):
                    acq.pdm_modulate(x[c])
            return
        lockstep, lockstep_clipped = acq.pdm_modulate_channels(blocks, n)
        assert lockstep.shape == (channels, n) and lockstep.dtype == bool and lockstep.flags.c_contiguous
        for c in range(channels):
            bits, clipped = pdm_modulate_oracle(x[c])
            for got, got_clipped in (acq.pdm_modulate(x[c]), (lockstep[c], lockstep_clipped[c])):
                assert got.shape == (n,) and got.dtype == bool
                assert np.array_equal(got, bits)
                assert got_clipped == clipped

    def test_fpga_packets_match_per_element_loop(self):
        # the acquire command's 200 phase-shifted tones, 2 ms each, one at a time and in lockstep blocks of 1000 ticks
        t = np.arange(int(acq.PDM_RATE * 0.002)) / acq.PDM_RATE
        waves = np.array([
            0.5 * np.sin(2 * np.pi * 1000.0 * t + 2 * np.pi * ch / acq.CHANNELS_PER_FPGA)
            for ch in range(acq.CHANNELS_PER_FPGA)
        ])
        expected = [p.pack() for p in acq.packetize(np.array([pdm_modulate_oracle(w)[0] for w in waves], dtype=bool))]
        packets = acq.packetize(np.array([acq.pdm_modulate(w)[0] for w in waves]))
        assert [p.pack() for p in packets] == expected
        lockstep, _ = acq.pdm_modulate_channels((waves.T[a : a + 1000] for a in range(0, len(t), 1000)), len(t))
        assert [p.pack() for p in acq.packetize(lockstep)] == expected

    def test_lockstep_edge_states(self):
        # fixed channels at the loop's edge states, fed in uneven blocks: silence, whose s2 lands on exactly +0.0
        # every fourth tick (decided +1), full scale held at +1.0 and at -1.0, +inf (clipped and flagged), a 0.5 tone
        n = 1000
        x = np.empty((n, 5))
        x[:, 0] = 0.0
        x[:, 1] = 1.0
        x[:, 2] = -1.0
        x[:, 3] = np.inf
        x[:, 4] = 0.5 * np.sin(2 * np.pi * 5000.0 * np.arange(n) / acq.PDM_RATE)
        edges = np.cumsum([0, 1, 7, 1, 250, 7, 3, 1, 7, 400, 13, 1])
        blocks = [x[a:b] for a, b in zip(edges, [*edges[1:], n])]
        assert edges[-1] < n and min(len(b) for b in blocks) == 1
        bits, clipped = acq.pdm_modulate_channels(iter(blocks), n)
        silent, _ = pdm_modulate_oracle(x[:, 0])
        assert list(silent[:8]) == [0, 0, 1, 1, 0, 0, 1, 1]
        for c in range(5):
            expected, expected_clipped = pdm_modulate_oracle(x[:, c])
            assert np.array_equal(bits[c], expected), c
            assert clipped[c] == expected_clipped == (c == 3)

    @pytest.mark.parametrize("n", [2999, 3001, 0])
    def test_blocks_must_hold_n_ticks(self, n):
        blocks = [np.zeros((1000, 4))] * 3  # 3000 ticks
        with pytest.raises(ValueError, match="ticks"):
            acq.pdm_modulate_channels(iter(blocks), n)

    def test_bit_plane_held_once(self):
        # each block's bits go straight into the one (C, n) plane: the call's peak is that plane and one
        # block's temporaries, not the plane twice
        channels, n, block = 1000, 8000, 100
        offsets = np.linspace(0.0, 2 * np.pi, channels, endpoint=False)
        phase = 2 * np.pi * 1000.0 * np.arange(n) / acq.PDM_RATE
        blocks = (0.5 * np.sin(phase[a : a + block, None] + offsets) for a in range(0, n, block))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            bits, _ = acq.pdm_modulate_channels(blocks, n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert bits.shape == (channels, n)
        assert peak < 1.6 * bits.nbytes, peak / bits.nbytes


class TestDecimation:
    def test_rate_bookkeeping(self):
        bits, _ = acq.pdm_modulate(np.zeros(acq.PDM_RATE))  # 1 s
        pcm = acq.pdm_decimate(bits)
        assert len(pcm) == acq.PCM_RATE == 48_000
        assert pcm.dtype == np.int32

    def test_sine_round_trip_level(self):
        wave = make_sine(0.5, 1000.0, 0.25)
        y = modulate_decimate(wave)
        amp, _ = sine_fit(y[1_000:-1_000], 1000.0, acq.PCM_RATE)
        assert abs(20 * np.log10(amp / 0.5)) <= 0.1

    def test_deterministic(self):
        wave = make_sine(0.25, 2000.0, 0.05)
        a = modulate_decimate(wave)
        b = modulate_decimate(wave)
        assert np.array_equal(a, b)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            acq.pdm_decimate(np.zeros(1000, dtype=bool))

    @pytest.mark.parametrize(
        "shape, error", [((2, 10_000), None), ((10_000, 1), "warm-up"), ((), "scalar")], ids=["channels", "column", "scalar"]
    )
    def test_decimates_along_last_axis(self, shape, error):
        # (C, n) bits give each row's own codes, never those of one flattened stream; a (n, 1) column holds one
        # bit per row, fewer than the warm-up, and a scalar has no axis to decimate
        bits = np.random.default_rng(3).integers(0, 2, shape).astype(bool)
        if error:
            with pytest.raises(ValueError, match=error):
                acq.pdm_decimate(bits)
        else:
            assert np.array_equal(acq.pdm_decimate(bits), [pdm_decimate_oracle(row) for row in bits])

    @pytest.mark.parametrize("n", [4704, 4711, 24576, 30412])  # the warm-up; 4711 and 30412 end in a part word
    @pytest.mark.parametrize("channels", [1, 3, 200])
    @pytest.mark.parametrize("source", ["random", "modulator"])
    def test_bits_match_per_channel_cumsum_cic(self, source, channels, n, modulator_plane):
        if source == "random":
            bits = np.random.default_rng(n + channels).integers(0, 2, (channels, n)).astype(bool)
        else:
            bits = modulator_plane[:channels, :n]
        expected = np.array([pdm_decimate_oracle(row) for row in bits])
        got = acq.pdm_decimate(bits)
        assert got.dtype == np.int32 and got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert np.array_equal(got, [acq.pdm_decimate(row) for row in bits])

    def test_plane_decimated_in_row_blocks(self):
        # the (C, n) plane goes through a few rows at a time: the call's peak is a fraction of the plane
        # (the whole plane at once takes about 1.4x its bytes)
        bits = np.random.default_rng(4).integers(0, 2, (acq.CHANNELS_PER_FPGA, 307_200), dtype=np.uint8).view(bool)
        acq.decimation_design()  # cached, and not the call's working memory
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pcm = acq.pdm_decimate(bits)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert pcm.shape == (acq.CHANNELS_PER_FPGA, 4800)
        assert peak <= 0.35 * bits.nbytes, peak / bits.nbytes

    def test_passband_ripple(self):
        f = np.linspace(50.0, 20_000.0, 500)
        rip = 20 * np.log10(np.abs(acq.chain_frequency_response(f)))
        assert rip.max() <= 0.1 and rip.min() >= -0.1

    def test_stopband_rejection(self):
        # all images of the final passband must be down >= 80 dB
        worst = 0.0
        for n in range(1, 32):
            for fo in np.linspace(0.0, 20_000.0, 41):
                for sgn in (-1.0, 1.0):
                    fi = n * 48_000.0 + sgn * fo
                    if fi <= 0 or fi >= acq.PDM_RATE / 2:
                        continue
                    worst = max(worst, float(np.abs(acq.chain_frequency_response(fi))[0]))
        assert 20 * np.log10(worst) <= -80.0

    def test_linearity(self):
        wave = make_sine(1.0, 1000.0, 0.2)
        for a_db in (0.0, -20.0, -40.0, -60.0):
            a = 10 ** (a_db / 20)
            y = modulate_decimate(a * wave)
            amp, _ = sine_fit(y[1_000:-1_000], 1000.0, acq.PCM_RATE)
            assert abs(20 * np.log10(amp / a)) <= 0.05

    def test_group_delay_constant_and_documented(self):
        # phase of a recovered tone measures the chain latency to a fraction
        # of a sample; the period (48 samples) exceeds the documented delay
        documented = acq.decimation_group_delay()
        assert documented == pytest.approx(35.6015625)
        for freq in (500.0, 1000.0):
            t = np.arange(int(acq.PDM_RATE * 0.2)) / acq.PDM_RATE
            wave = 0.5 * np.sin(2 * np.pi * freq * t)
            y = modulate_decimate(wave)
            n = np.arange(len(y))
            a = np.stack(
                [np.cos(2 * np.pi * freq * n / acq.PCM_RATE), np.sin(2 * np.pi * freq * n / acq.PCM_RATE)], axis=1
            )
            coef, *_ = np.linalg.lstsq(a[1000:-1000], y[1000:-1000], rcond=None)
            # input phase is sin -> measured phase lag maps to sample delay
            phase = np.arctan2(coef[0], coef[1])
            delay = (-phase / (2 * np.pi * freq)) * acq.PCM_RATE % (acq.PCM_RATE / freq)
            assert delay == pytest.approx(documented, abs=0.1)

    def test_sinad(self):
        wave = make_sine(0.5, 1000.0, 0.5)  # -6 dBFS
        y = modulate_decimate(wave)
        amp, resid = sine_fit(y[2_000:-2_000], 1000.0, acq.PCM_RATE)
        sinad = 10 * np.log10((amp**2 / 2) / np.mean(resid**2))
        assert sinad >= 60.0


class TestPackets:
    def test_round_trip(self, rng):
        bits = random_bits(rng)
        packets = acq.packetize(bits, fpga_id=2)
        out, gaps = acq.depacketize(packets)
        assert not gaps
        assert list(out) == [2]
        assert out[2].dtype == bool and np.array_equal(out[2], bits)

    def test_shuffle_resequenced(self, rng):
        bits = random_bits(rng)
        packets = acq.packetize(bits, fpga_id=0)
        rng.shuffle(packets)
        out, _ = acq.depacketize(packets)
        assert np.array_equal(out[0], bits)

    def test_drop_reports_exact_gap(self, rng):
        bits = random_bits(rng, n_bits=8 * 512 * 3)
        packets = [p for p in acq.packetize(bits) if p.sequence != 5]
        out, gaps = acq.depacketize(packets, allow_gaps=True)
        assert len(gaps) == 1
        g = gaps[0]
        assert (g.first_sequence, g.last_sequence) == (5, 5)
        assert (g.start_sample, g.end_sample) == (5 * 512, 6 * 512)
        # dropped span reads as alternating bits (silence), the rest is intact
        recovered = out[0][7]
        original = bits[7]
        assert np.array_equal(recovered[: 5 * 512], original[: 5 * 512])
        assert np.array_equal(recovered[5 * 512 : 6 * 512], np.arange(5 * 512, 6 * 512) % 2 == 0)
        assert np.array_equal(recovered[6 * 512 :], original[6 * 512 :])

    def test_gap_raises_without_allow(self, rng):
        packets = [p for p in acq.packetize(random_bits(rng)) if p.sequence != 3]
        with pytest.raises(ProtocolError):
            acq.depacketize(packets)

    def test_duplicate_raises(self, rng):
        packets = acq.packetize(random_bits(rng))
        packets.append(packets[1])
        with pytest.raises(ProtocolError):
            acq.depacketize(packets)

    @pytest.mark.parametrize(
        "seq, field, value",
        [
            (1, "frames", 25),  # payload length unchanged: 25 frames take 4 bytes, as 32 do
            (1, "sample_timestamp", 16),
            (3, "sample_timestamp", 2**62),  # the last packet sizes the stream buffer
            (2, "channels", 100),
        ],
        ids=["frames", "timestamp", "last-timestamp", "channels"],
    )
    def test_inconsistent_header_raises(self, rng, seq, field, value):
        packets = acq.packetize(random_bits(rng, n_bits=128), frames_per_packet=32)
        bad = dataclasses.replace(packets[seq], **{field: value})
        if field == "channels":
            bad.payload = bad.payload[: value * 4]  # a payload that holds 100 channels
        packets[seq] = bad
        with pytest.raises(ProtocolError):
            acq.depacketize(packets, allow_gaps=True)

    def test_lone_last_packet(self, rng):
        # with every other packet lost, the last one's position gives the frame count
        bits = random_bits(rng, n_bits=100)
        packets = acq.packetize(bits, frames_per_packet=32)
        out, gaps = acq.depacketize(packets[-1:], allow_gaps=True)
        assert [(g.first_sequence, g.last_sequence, g.start_sample, g.end_sample) for g in gaps] == [(0, 2, 0, 96)]
        assert np.array_equal(out[0][7][96:], bits[7][96:])

    def test_channel_count_enforced(self, rng):
        with pytest.raises(ValueError):
            acq.packetize(random_bits(rng)[:10])

    @pytest.mark.parametrize(
        "fpga_id, frames_per_packet",
        [(70_000, 512), (-1, 512), (0, 70_000), (0, 0)],
        ids=["fpga-id-high", "fpga-id-negative", "frames-high", "frames-zero"],
    )
    def test_header_fields_out_of_range_raise(self, rng, fpga_id, frames_per_packet):
        # both go into uint16 header fields, so packetize refuses what DaqPacket.pack could not write
        with pytest.raises(ValueError):
            acq.packetize(random_bits(rng, n_bits=64), fpga_id=fpga_id, frames_per_packet=frames_per_packet)

    def test_header_fields_at_their_limits_pack(self, rng):
        (packet,) = acq.packetize(random_bits(rng, n_bits=64), fpga_id=65_535, frames_per_packet=65_535)
        back = acq.DaqPacket.unpack(packet.pack())
        assert (back.fpga_id, back.frames) == (65_535, 64)

    def test_two_fpgas_in_one_capture(self, rng):
        # the packets of FPGAs 0 and 35 interleaved and shuffled, one packet of each lost
        n = 512 * 12
        sent = {0: random_bits(rng, n), 35: random_bits(rng, n)}
        lost = {0: 4, 35: 9}
        packets = [p for f, bits in sent.items() for p in acq.packetize(bits, fpga_id=f) if p.sequence != lost[f]]
        rng.shuffle(packets)
        out, gaps = acq.depacketize(packets, allow_gaps=True)
        assert sorted(out) == [0, 35]
        assert [(g.fpga_id, g.first_sequence, g.last_sequence) for g in gaps] == [(0, 4, 4), (35, 9, 9)]
        for g in gaps:
            a, b = g.start_sample, g.end_sample
            assert (a, b) == (lost[g.fpga_id] * 512, (lost[g.fpga_id] + 1) * 512)
            got, bits = out[g.fpga_id], sent[g.fpga_id]
            assert got.shape == (acq.CHANNELS_PER_FPGA, n)
            assert np.array_equal(got[:, :a], bits[:, :a]) and np.array_equal(got[:, b:], bits[:, b:])
            # the gap reads as alternating bits, the PDM code of silence, in every channel
            assert (got[:, a:b] == (np.arange(a, b) % 2 == 0)).all()

    def test_capture_file_round_trip(self, rng, tmp_path):
        packets = acq.packetize(random_bits(rng), fpga_id=7)
        path = tmp_path / "capture.bin"
        acq.write_capture(path, packets)
        back = acq.read_capture(path)
        assert len(back) == len(packets)
        assert all(a.pack() == b.pack() for a, b in zip(packets, back))

    def test_truncated_capture_raises_protocol_error(self, rng, tmp_path):
        packets = acq.packetize(random_bits(rng, n_bits=64), frames_per_packet=32)
        path = tmp_path / "capture.bin"
        acq.write_capture(path, packets)
        data = path.read_bytes()
        record = len(data) // len(packets)  # length prefix + header + payload
        for n in range(len(data)):
            path.write_bytes(data[:n])
            if n % record == 0:
                assert len(acq.read_capture(path)) == n // record
            else:
                with pytest.raises(ProtocolError):
                    acq.read_capture(path)

    @settings(max_examples=300, deadline=None)
    @given(offset=st.integers(0, 4 + acq.PACKET_HEADER.size - 1), byte=st.integers(0, 255))
    def test_corrupt_capture_header_is_read_or_rejected(self, tmp_path_factory, offset, byte):
        packets = acq.packetize(random_bits(np.random.default_rng(5), n_bits=64), frames_per_packet=32)
        path = tmp_path_factory.mktemp("capture") / "capture.bin"
        acq.write_capture(path, packets)
        data = bytearray(path.read_bytes())
        changed = data[offset] != byte
        data[offset] = byte
        path.write_bytes(bytes(data))
        try:
            back = acq.read_capture(path)
        except ProtocolError:
            return
        # the length prefix and the magic admit no other value
        assert offset >= 8 or not changed
        assert [p.payload for p in back] == [p.payload for p in packets]

    def test_bad_magic(self):
        with pytest.raises(ProtocolError):
            acq.DaqPacket.unpack(b"NOPE" + bytes(24))

    def test_packet_layout(self, rng):
        p = acq.packetize(random_bits(rng, n_bits=512), fpga_id=1)[0]
        raw = p.pack()
        assert raw[:4] == b"SIAM"
        assert len(raw) == acq.PACKET_HEADER.size + 200 * 64  # 12800-byte payload


class TestBudgets:
    def test_data_rate_examples(self):
        assert acq.stream_data_rate(200, 3.072e6, 0.0) == pytest.approx(614.4)
        assert acq.stream_data_rate(1, 3.072e6, 0.0) == pytest.approx(3.072)
        approx_620 = acq.stream_data_rate(200, 3.072e6, 0.0091)
        assert abs(approx_620 - 620.0) < 1.0

    def test_phase_skew_examples(self):
        assert acq.phase_skew_budget(3e-9, 20_000.0) == pytest.approx(0.0216, abs=1e-12)
        assert acq.phase_skew_budget(0.0, 12_345.0) == 0.0
        assert acq.phase_skew_budget(1.2e-9, 1_000.0) == pytest.approx(4.32e-4, abs=1e-12)
        with pytest.raises(ValueError):
            acq.phase_skew_budget(-1e-9, 1000.0)
