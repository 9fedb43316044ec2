"""Report bytes beyond the benchmark curves: the SHA-256 of the
`torusdep analyze` output (JSON and text) and of `torusdep fiber` at order
12 for one character (JSON and text), pinned for curves that reach the
factor_poly fallback, P or Q at infinity, negative c and rational roots.
The digests were taken from the outputs of commit be48108, before the
torsion-fiber factors were built in integers.

SCAN_200 pins the `analyze --scan-height 200` JSON of the four benchmark
curves and of a curve whose places t - 6, t, t + 6 share primes; those
digests were taken at commit b6b94f4, before the height scan certified its
degree-1 places from their resultants. On the four benchmark curves they
equal the H = 50 digests in bench/reference.json: no parameter of height
51 to 200 is dependent there. Its last two curves, one whose degree-1 rows
have rank below n and one with places of degree 2, were taken at commit
fa0fa74, before a degree-1 place's certificate became its only test and
the gcd strip was kept for places of degree 2 or more alone. A curve with
a 4300-digit constant must answer at sweep bound 50 within a timeout, and
a curve or point whose output would hold an integer past Python's
int-to-str limit must exit 2 with an error line."""
import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest

from test_validation import _src_env
from torusdep.cli import main

# (curve, character, (analyze json, analyze text, fiber json, fiber text))
GOLDEN = (
    ('-(t-1)^3; t', '1,-3', ('08ba51586aeb3333d418d85cc9336175ac288fe6ca4a5e3fc86179ecbb30c286', 'd2c3ee66f1c53668adf8022d8d473460d16a3ea652017df35484d1358bc2de13', 'dc21d2add0dc13e4183db54d4469e617b542c7c579725984c5ab49f8e4b04130', '02111db8596a7d2980d9e82de2c37dcb9f4865d8e86a858056e8e0049fc82686')),
    ('2*(t-1)^2; t', '1,-2', ('0d030e4c56de38055946018f9d5cd53ab628b3f201450ad2332258e3da53c68e', '6a12496f54e9606de3100af3966e60010c63c211ce99b2fb43fc5f1c8d34f080', 'bc52de2fb70c1ff2fe5bdd37477dcc2fb677bd3346c7cfdf8ae0220894522b8d', '6b05fed0c73083f699789bf41e43d95fe74cb50ed2bbe32c27783e1b10d46101')),
    ('(2*t+3)^2; 5*t', '1,-2', ('52b5dd267f69f5ea0ab83c1340f4aefb9334fba409fe5e061f54d3c423f13ae0', '72ccddd1373160a6c7020195ef1fed8a27ba992e5be16acf06f202feb42b217d', '556093b63682644b97e1d896e7da9037ada510b6c6c91596e9e439bf75cd9307', 'd28645c0315b3a27907e11f326e02ee218d6e421b42d1cc96a18fc84313e6a9c')),
    ('-(t-1)^2/4; t+5', '1,-2', ('5eb53cab8e326d2d074f59db7a95e64f8f844b1dafc00f35264edf94b5f3ec1f', '35f3b26ff6100ab3d5f8e6d037d2ee213d4208ccac56322058334f04d44af3a8', '4675c556f2e9be19964fea92f58303e0f75e426576222fb20c5b543aca642020', '2aae2e2730733586c7b7c3fe439e8d7c4db3d3e582ace59a327ebeb2b292f65f')),
    ('3*t/(2*t-1); (t+2)^2', '1,0', ('56cbea002ca0b8d5864ab30c876b365f67aecb9ca18693c45013b05a0bd85f30', 'b1ab38b5ff6796f7e3af2847653e492a993f62239e8d3d8ace3778b9cc9f923f', 'f141c88e2068508b6746b79f230befa36fc6502cc7bc724f5899b31535a587da', '32478d551b593898b2a95ddd5a5fed5804f66c45df0395541630ca5b1e8158f5')),
)


def _digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("curve, char, digests", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_output_bytes_match_golden(curve, char, digests):
    got = tuple(_digest(["analyze", "--curve", curve, "--format", f]) for f in ("json", "text"))
    got += tuple(
        _digest(["fiber", "--curve", curve, "--char", char, "--order", "12", "--format", f])
        for f in ("json", "text")
    )
    assert got == digests


SCAN_200 = (
    ("(t-1)^2; t", "e646c8e5553f1e4d8f55435dc46fe47ef16b227e13808b62c6b7996ceb3a6fb1"),
    ("(t-1)^3; t", "73ac87d531a321c7a1cd7b9517fdb9a1316b68a062fffb2076370f0d8f931684"),
    ("2*t/(t+1); t^(-2)", "00812e34c4b10f4dfd80f25bd80d2082f9191c9ea25226ecca7dc935badeea6e"),
    ("t*(t+1); (t-2)/(t+3); t-5", "d716442cc1d0ba8f10c829ed95ee108458a7e7ff043cd1c7ab80c96316bdd49e"),
    ("t*(t+6); 3*(t-6)/t", "f9b590455de596a1e3aa75977def7012caa73c9c91518571b279e8e49996498f"),
    ("(t^2+t+1)/(t^2-2); 3*t/(t+1)", "f386fe5386bcb0ee4b1e6a4d400132e6b213f91359b4e09367d3891ffaf01838"),
    ("t^2*(t+1)/(t-3); (3*t^2+1)/(t+5)^2; 7*t", "dfe594955fcd915bb2b8b4bb288b402aec113753036947062d1288e5514a4ca0"),
)


@pytest.mark.parametrize("curve, digest", SCAN_200, ids=[c for c, _ in SCAN_200])
def test_scan_height_200_bytes_match_golden(curve, digest):
    assert _digest(["analyze", "--curve", curve, "--scan-height", "200"]) == digest


def test_4300_digit_constant_answers():
    """A prime of N = 10**4299 + 7 exceeds 50, so no q cancels it from
    x_1 = N*p/q and no relation involves x_1; x_2 = t + 1 must then be -1,
    and t = -2 is the only dependent parameter."""
    argv = ["analyze", "--curve", f"{10 ** 4299 + 7}*t; t+1", "--torsion-order", "2", "--scan-height", "50"]
    done = subprocess.run(
        [sys.executable, "-m", "torusdep.cli", *argv], env=_src_env(), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert [r["t"] for r in json.loads(done.stdout)["scan"]] == ["-2"]


def test_4300_digit_constant_to_the_200th_power_answers():
    """x_2's place t - 3 also divides x_1 = N*(t-3)*t, so a survivor's
    product can hold N and (p - 3q)**200 together; the scan compares residues
    of such products instead of multiplying them out. N's primes exceed 20,
    so a relation has no x_1 and x_2 = (t-3)**200*(t+1) is never +-1: no
    parameter is dependent. The digest is that of commit a4d333a."""
    curve = f"{10 ** 4299 + 7}*(t-3)*t; (t-3)^200*(t+1)"
    argv = ["analyze", "--curve", curve, "--torsion-order", "2", "--scan-height", "20"]
    done = subprocess.run(
        [sys.executable, "-m", "torusdep.cli", *argv], env=_src_env(), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["scan"] == []
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == (
        "4db37d031e89eb40418082079e688e6b91ddc4ab3297f8a9b5d142680f017fc4"
    )


SEVENS, NINES = "7" * 4300, "9" * 4300
# coordinates of 1657 and 2079 digits, inside MAX_LITERAL_DIGITS
K = 1200
BIG_POINT = f"{2 ** (3 * K) * 3 ** K},{2 ** K * 3 ** (3 * K)}"


@pytest.mark.parametrize(
    "argv",
    [
        # fiber factors of degree >= 2 carry 1/N**k
        ["analyze", "--curve", f"{SEVENS}*t; t+1", "--torsion-order", "12", "--scan-height", "50"],
        # the scan point at t = -2 has 4301 digits
        ["analyze", "--curve", f"{SEVENS}*t; t+1", "--torsion-order", "2", "--scan-height", "50"],
        # the character constant has 8600 digits
        ["phi", "--curve", f"{NINES}*{NINES}*t; t+1"],
        # a generator of the group of the point has more than 4300 digits
        ["decompose", "--point", BIG_POINT],
    ],
    ids=["analyze-fibers", "analyze-scan", "phi", "decompose"],
)
def test_output_integer_past_str_limit_exits_2(argv):
    done = subprocess.run(
        [sys.executable, "-m", "torusdep.cli", *argv], env=_src_env(), capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith("error: ") and f"({sys.get_int_max_str_digits()} digits)" in done.stderr
