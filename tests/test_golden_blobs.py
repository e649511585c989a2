"""Byte-identity guard for the codecs.

Pins the SHA-256 of ``codecs.compress`` blobs and of the ``decompress``
output for all seven codecs on small fixed inputs (1-D to 4-D,
float32 / float64 / int32, eps 1e-2 and 1e-4), plus HPEZ cases that take
the Lorenzo path, carry a §6.6 block map, or run with fvfi = False.

A kernel rewrite that is meant to be a pure speed-up must leave every
digest unchanged. When a change alters a format or a decision on
purpose, print the new table with ``python tests/test_golden_blobs.py``
and say why in the change description. The inputs use only exactly
rounded arithmetic, so they do not depend on the platform's libm; the
blobs of the transform codecs (TTHRESH's SVD) can still depend on the
BLAS/LAPACK build NumPy links against.
"""
import hashlib

import numpy as np
import pytest

from repro import codecs
from repro.core import container, metrics

SHAPES = {1: (301,), 2: (37, 41), 3: (19, 17, 21), 4: (9, 7, 8, 10)}
DTYPES = ("float32", "float64", "int32")
EPS = (1e-2, 1e-4)


def golden_field(shape, dtype, rough=0.05, seed=0):
    """Smooth rational bump plus uniform noise, scaled ints for int32."""
    rng = np.random.default_rng(seed)
    grids = np.meshgrid(
        *[np.arange(n, dtype=np.float64) / max(n - 1, 1) for n in shape],
        indexing="ij",
    )
    x = np.zeros(shape)
    for k, g in enumerate(grids):
        x += (k + 1.0) / (1.0 + 8.0 * (g - 0.3 - 0.1 * k) ** 2)
    x += grids[0] * grids[-1] * 1.5
    x += rough * (rng.random(shape) - 0.5)
    if np.dtype(dtype).kind == "i":
        return np.rint(x * 1000.0).astype(dtype)
    return x.astype(dtype)


def _cases():
    cases = []
    for codec in codecs.ALL_CODECS:
        for nd, shape in SHAPES.items():
            for k, eps in enumerate(EPS):
                dtype = DTYPES[(nd + k) % len(DTYPES)]
                cases.append(
                    (f"{codec}-{nd}d-{dtype}-{eps:g}", codec, shape, dtype, 0.05, eps, {})
                )
    # HPEZ picks Lorenzo on this smooth 2-D field.
    cases.append(("hpez-lorenzo", "hpez", (64, 64), "float64", 0.0, 1e-2, {}))
    # A half-rough field: block-wise tuning (§6.6) keeps a block map.
    cases.append(("hpez-blockmap", "hpez", (70, 66), "float64", "split", 1e-4, {}))
    cases.append(
        ("hpez-nofvfi", "hpez", (19, 17, 21), "float32", 0.05, 1e-4, {"fvfi": False})
    )
    return cases


CASES = _cases()


def case_input(shape, dtype, rough):
    if rough == "split":
        x = golden_field(shape, dtype, rough=0.0)
        half = x[: shape[0] // 2]
        half += 0.3 * (np.random.default_rng(1).random(half.shape) - 0.5)
        return x
    return golden_field(shape, dtype, rough=rough)


def digests(codec, shape, dtype, rough, eps, kw):
    """(blob digest, reconstruction digest, max error / bound, blob)."""
    x = case_input(shape, dtype, rough)
    blob = codecs.compress(codec, x, eps, **kw)
    recon = np.ascontiguousarray(codecs.decompress(blob))
    h = hashlib.sha256(recon.dtype.str.encode() + repr(recon.shape).encode())
    h.update(recon.tobytes())
    err = metrics.max_abs_err(x, recon) / (eps * metrics.value_range(x))
    return hashlib.sha256(blob).hexdigest()[:24], h.hexdigest()[:24], err, blob


#: name -> (blob digest, reconstruction digest), 96-bit SHA-256 prefixes
GOLDEN = {
    "sz3-1d-float64-0.01": ("9d6fa13bdd908d7137a1c594", "d181ac78e3d71c53fa8597b1"),
    "sz3-1d-int32-0.0001": ("6092216d64b9c842d7692bfd", "c2eac590806e3116fb7c8a9c"),
    "sz3-2d-int32-0.01": ("1d04af268e5271737d61c6c5", "449663de9016de7ee3fd2996"),
    "sz3-2d-float32-0.0001": ("7876603b527a3237cefb7ff1", "860226ae17829197a8ee11a7"),
    "sz3-3d-float32-0.01": ("b0941ad147ea714aaffcf86d", "0a4e73bca053ffbe731caddb"),
    "sz3-3d-float64-0.0001": ("9f6804acfb4b2f4cb6ff2b6d", "967703e6f5158c4a7733140d"),
    "sz3-4d-float64-0.01": ("9f313d18300bc732e49d0cc8", "690f8e3a911f16c8194dc135"),
    "sz3-4d-int32-0.0001": ("1dcaa93191d957001dd63935", "b314f6fe91fdfd371a43fc46"),
    "zfp-1d-float64-0.01": ("258ea7445884843ee4eafab4", "bf6048411827aa7f8e051631"),
    "zfp-1d-int32-0.0001": ("43e4e28d978df8183f56bea4", "eaf47fc6689380c21fcdf619"),
    "zfp-2d-int32-0.01": ("c3571e852d452301c16452e2", "be5bb548eafe3e33d0970d75"),
    "zfp-2d-float32-0.0001": ("54f7a6dcab304b11a842b823", "ecf9b0835e2fc906c590c311"),
    "zfp-3d-float32-0.01": ("127412093d451ed1c30b8cd7", "dd3202867d897033addd1db5"),
    "zfp-3d-float64-0.0001": ("c49d206f466f80f188afcd47", "18f0fb4b0584edc4e82560cf"),
    "zfp-4d-float64-0.01": ("6cc35a9e69df4f77adcd4b01", "6fb2995af1890ab2812c1061"),
    "zfp-4d-int32-0.0001": ("6c9989149789e8e43ec9ae2d", "1c11527a6025676d268c2325"),
    "qoz-1d-float64-0.01": ("6658467d9d535629051d0d8c", "cbfcf58b52dab11eeede5fd5"),
    "qoz-1d-int32-0.0001": ("3708b18882cb30a5377a2889", "0ccfce613ee754ccbf058324"),
    "qoz-2d-int32-0.01": ("bf4d9cb4c18674ede4772395", "16ac1aa1d213bcffc0dada10"),
    "qoz-2d-float32-0.0001": ("857ee169699a76c87c0be90e", "4ef9acf871a5a31550aae671"),
    "qoz-3d-float32-0.01": ("f57e2a12a55791af6feead31", "3b6cdb7e54be77af8f00e767"),
    "qoz-3d-float64-0.0001": ("1ba4e13b69d2f1326a1427a0", "a05e7bbe71d8a3a1016848fc"),
    "qoz-4d-float64-0.01": ("3014d503786bb0f602caa580", "690f8e3a911f16c8194dc135"),
    "qoz-4d-int32-0.0001": ("ff87056c4116726a73cf9ea7", "dd4984a406d4b321025d436e"),
    "hpez-1d-float64-0.01": ("580badd14e301d9a98d69375", "d181ac78e3d71c53fa8597b1"),
    "hpez-1d-int32-0.0001": ("d80586bf9a21467adfd042ad", "c2eac590806e3116fb7c8a9c"),
    "hpez-2d-int32-0.01": ("728c0ce7ab58e20229990860", "449663de9016de7ee3fd2996"),
    "hpez-2d-float32-0.0001": ("f40a78034c370f87582d27d6", "4ef9acf871a5a31550aae671"),
    "hpez-3d-float32-0.01": ("9e8c0c03f6778389ff98de7a", "4980c9755621f3473c3b9a55"),
    "hpez-3d-float64-0.0001": ("1e0ba6c5e58968868334777d", "a05e7bbe71d8a3a1016848fc"),
    "hpez-4d-float64-0.01": ("58ed6b2c4ca39495820b8ea4", "82754c0f757b20ed706ff35e"),
    "hpez-4d-int32-0.0001": ("ef66950138392fbd96e85df6", "6ee23e84b36afc51e9b29547"),
    "sperr-1d-float64-0.01": ("e2e8f7df93ea720a2c71a1bb", "02cd016c8cf4de5d11724aa0"),
    "sperr-1d-int32-0.0001": ("c00acc98e90b28c5d7530c4b", "987092817531a6aaa3ba5f42"),
    "sperr-2d-int32-0.01": ("5a25dd280ca5a142c135d792", "9dd866b67544d8af1e61f5de"),
    "sperr-2d-float32-0.0001": ("5da526c82d0e5d53b81ef08e", "e61a58684837e8e891e91520"),
    "sperr-3d-float32-0.01": ("5c05e2f1f750076cde6c0d59", "8763202d989587afe6453417"),
    "sperr-3d-float64-0.0001": ("7276da1e0c9727b65dffeb63", "5b4c37ac20b609a614dc97d4"),
    "sperr-4d-float64-0.01": ("e0577bb5589f2fd5b6b39c00", "49c1ddc86c0f98a45aee63e5"),
    "sperr-4d-int32-0.0001": ("b2eaed3065cd76c19d86bb46", "e5dae9db8a0782caaf43bdcd"),
    "faz-1d-float64-0.01": ("1817d8c80d842871a58f212b", "d181ac78e3d71c53fa8597b1"),
    "faz-1d-int32-0.0001": ("507ff605e82956705bfbcb82", "c2eac590806e3116fb7c8a9c"),
    "faz-2d-int32-0.01": ("b744b9bec4fdd9a05cacfc72", "449663de9016de7ee3fd2996"),
    "faz-2d-float32-0.0001": ("1b1c50f653973ea0561f2e0f", "860226ae17829197a8ee11a7"),
    "faz-3d-float32-0.01": ("2648872211f811471dea65f5", "8763202d989587afe6453417"),
    "faz-3d-float64-0.0001": ("9ff6d301e71ed2eae5c18416", "ff486a20be762ee488a96acf"),
    "faz-4d-float64-0.01": ("317153a7ffee7e585f383e3e", "57e321f515e6b153fa98ffb4"),
    "faz-4d-int32-0.0001": ("2f296ff2246d86ed86aa1f19", "92ba97d940d33bdfc4614ff4"),
    "tthresh-1d-float64-0.01": ("e9a1e601214e01f084e47071", "3f47e6824272bce6721c0951"),
    "tthresh-1d-int32-0.0001": ("4925941bb90e14d7dd51b0cf", "6bb49b8daeab11181359ef40"),
    "tthresh-2d-int32-0.01": ("e309c4f50b641cef7c624c38", "9c983d67121995e1b479c396"),
    "tthresh-2d-float32-0.0001": ("b2578f2c92db0739224857c3", "9f6665cb61b2c43772349741"),
    "tthresh-3d-float32-0.01": ("67de54d1ae3fdf4fbbf57c3f", "e9b19de5d3ae95e205816707"),
    "tthresh-3d-float64-0.0001": ("30e54e0f54d39ba490969654", "a4b3aa1908b1bfdae390e747"),
    "tthresh-4d-float64-0.01": ("7801568753d489e1ade7f933", "2baab0f05696307acb143f07"),
    "tthresh-4d-int32-0.0001": ("6472eb7fbb4f14d510066256", "7cb867322e74dabc6682f91a"),
    "hpez-lorenzo": ("fd6db7dbb82da2c184f1bf55", "ffff8e1283d823c285dcb8d3"),
    "hpez-blockmap": ("6327a3a65447a1805f53e003", "8da5e2fb44e862e470772323"),
    "hpez-nofvfi": ("4dc955d4b4a16c9adae5c441", "077de59f39464e99a8ebc706"),
}


#: special cases and the path each must keep exercising
PATHS = {"hpez-lorenzo": "lorenzo", "hpez-blockmap": "interp+blockcfg"}


def _kind(blob):
    inner = container.unpack(container.unpack(blob)["payload"])
    meta = container.from_json(inner["meta"])
    if meta["kind"] != "interp":
        return meta["kind"]
    return "interp+blockcfg" if "blockcfg" in container.unpack(inner["inner"]) else "interp"


@pytest.mark.parametrize(
    "name,codec,shape,dtype,rough,eps,kw", CASES, ids=[c[0] for c in CASES]
)
def test_golden_digest(name, codec, shape, dtype, rough, eps, kw):
    blob_sha, recon_sha, err, blob = digests(codec, shape, dtype, rough, eps, kw)
    assert err <= 1.0
    assert (blob_sha, recon_sha) == GOLDEN[name]
    if name in PATHS:
        assert _kind(blob) == PATHS[name]


if __name__ == "__main__":
    for name, *args in CASES:
        b, r, _, _ = digests(*args)
        print(f'    "{name}": ("{b}", "{r}"),')
