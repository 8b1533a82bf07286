"""Certificates with the same bits on every host.

certify writes every power as products and otherwise uses only +, -, *,
/ and sqrt, which IEEE 754 rounds correctly, so its bits do not depend
on the CPU.  A fixed table of configs pins the 17-digit rows of
certificate.csv: the three kinds of alpha strategy, all four sigma
variants, and sigma and l close to the two overflow guards of
alpha_limit (sigma^4 and l^4 near the top of the float range).  A fresh
process certifies the table again with numpy's AVX-512 dispatch
switched off and must write the same bytes.  Six of the configs wrote
other bytes under that switch while certify formed its powers with
numpy array powers.

The trig model's sigma_min and sigma_max go through libm's sin unless
the z domain holds two critical points of sin(omega z), where the range
is exactly sigma0 -+ |eps|.  Every trig config here has such a domain,
so no pinned row depends on how a libm rounds sin.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from hypobgk import cli
from hypobgk.cli import main

# numpy refuses to import when a baseline feature is named, so only
# features above x86-64-v3 are; names that a numpy does not know it ignores
DISPATCH_OFF = "AVX512_SPR AVX512_ICL X86_V4"

ROWS = ("L", "l", "sigma_min", "sigma_max", "alpha", "alpha_max",
        "lambda_min", "mu", "lambda", "ctilde", "chat")

# (L, alpha_strategy, sigma section, the value column of certificate.csv);
# the sigma domain is [-1, 1] unless given
TABLE = [
    (6.283185307179586, "optimize", dict(variant="constant", sigma0=1.0),
     ("6.2831853071795862", "1", "1", "1", "0.091793947248945157",
      "0.20320393226593081", "0.10154414070858299", "0.041812314536036017",
      "0.041812314536036017", "1.2431623148924724", "1.2431623161356349")),
    (27.344, "fraction:0.39", dict(variant="constant", sigma0=5.117),
     ("27.344000000000001", "0.2297829617897742", "5.117", "5.117",
      "0.022981738857947655", "0.058927535533199113", "0.0064557438287317975",
      "0.0030635175727318034", "0.0030635175727318034", "1.0551684873754341",
      "5.3992971552993936")),
    (26.148, 0.0179, dict(variant="constant", sigma0=2.288),
     ("26.148", "0.24029315080234001", "2.2879999999999998",
      "2.2879999999999998", "0.017899999999999999", "0.12888886832409996",
      "0.0074340064338177022", "0.0035679142982768005",
      "0.0035679142982768005", "1.0426967234823448", "2.3856901057132949")),
    (6.283185307179586, "optimize", dict(variant="affine", sigma0=1.0, c1=0.1),
     ("6.2831853071795862", "1", "0.90000000000000002", "1.1000000000000001",
      "0.086420471925199277", "0.192", "0.094865049481874297",
      "0.039469833931619375", "0.039469833931619375", "1.2269690505362394",
      "1.3496659569395295")),
    (3.895, "optimize", dict(variant="affine", sigma0=4.948, c1=-2.639),
     ("3.895", "1.6131412855403302", "2.3090000000000006",
      "7.5869999999999997", "0.097324223921122735", "0.21200397306954299",
      "0.17561706171455918", "0.071552220412138004", "0.071552220412138004",
      "1.2601488597738275", "9.5607494086647797")),
    (11.2, "fraction:0.95", dict(variant="affine", sigma0=1.7, c1=0.6),
     ("11.199999999999999", "0.56099868814103448", "1.1000000000000001",
      "2.2999999999999998", "0.21507180557910696", "0.2263913742937968",
      "0.013088081524909839", "0.0043566912478881", "0.0043566912478881",
      "1.7368367999389756", "3.9947246438543682")),
    (29.108, "fixed:0.0069", dict(variant="affine", sigma0=2.549, c1=-1.767),
     ("29.108000000000001", "0.21585767854815124", "0.78200000000000003",
      "4.3159999999999998", "0.0068999999999999999", "0.065382552491153517",
      "0.0026662814220761851", "0.0013120076035287918",
      "0.0013120076035287918", "1.0162392984065827", "4.3860888163088996")),
    (24.617, "optimize",
     dict(variant="trig", sigma0=7.939, eps=5.962, omega=0.5,
          z_domain=[-4.0, 4.0]),
     ("24.617000000000001", "0.25523765313318381", "1.9770000000000003",
      "13.901", "0.012041398656969033", "0.02441566112795494",
      "0.0031166910010093545", "0.0015157386741276061",
      "0.0015157386741276061", "1.0285160336591179", "14.2974013981928")),
    (5.296, "fraction:0.83",
     dict(variant="trig", sigma0=4.001, eps=0.382, omega=0.48,
          z_domain=[-7.0, 7.0]),
     ("5.2960000000000003", "1.1864020595127618", "3.6190000000000002",
      "4.383", "0.19578615198009561", "0.23588693009650075",
      "0.085380148676379775", "0.029299057829291025", "0.029299057829291025",
      "1.6381554097175328", "7.1800351679719823")),
    (17.0, "fraction:0.25",
     dict(variant="trig", sigma0=0.9, eps=0.4, omega=2.5),
     ("17", "0.36959913571644626", "0.5", "1.3", "0.058026643684784128",
      "0.23210657473913651", "0.03279190078935125", "0.014439941581404677",
      "0.014439941581404677", "1.1460210302374016")),
    (10.332, 0.0109,
     dict(variant="trig", sigma0=6.261, eps=2.909, omega=0.32,
          z_domain=[-5.0, 5.0]),
     ("10.332000000000001", "0.60812865923147363", "3.3520000000000003",
      "9.1699999999999999", "0.0109", "0.08544229356673827",
      "0.01158226418759079", "0.0056474325238839692",
      "0.0056474325238839692", "1.0257772404728867", "9.4063773045427475")),
    (22.078, "optimize",
     dict(variant="polynomial", coeffs=[1.84, 0.069, 0.165, -0.062]),
     ("22.077999999999999", "0.28459033006520457", "1.8332715434294646",
      "2.012", "0.075947470444281823", "0.16335536745375034",
      "0.023582524730670271", "0.010015572860006301", "0.010015572860006301",
      "1.1962435787047021", "2.55517628666842")),
    (22.991, "fraction:0.55",
     dict(variant="polynomial", coeffs=[5.579, 1.467, 0.898, -0.278]),
     ("22.991", "0.27328890901568381", "5.0807157019852571",
      "7.6660000000000004", "0.025880484616428525", "0.047055426575324584",
      "0.0063772315996812757", "0.0030069486763984643",
      "0.0030069486763984643", "1.0623563788609991", "8.7346941557298283")),
    (2.9, "fraction:0.7",
     dict(variant="polynomial", coeffs=[1.2, 0.3, -0.2, 0.05, 0.01],
          z_domain=[-1.5, 2.0]),
     ("2.8999999999999999", "2.1666156231653746", "0.18187500000000001",
      "1.5600000000000001", "0.018781963358648172", "0.026831376226640249",
      "0.014439419007777912", "0.0069164582077491411", "0.0069164582077491411",
      "1.0448496611923586", "3.3017249326695781")),
    (13.7, "fixed:0.04", dict(variant="polynomial", coeffs=[3.0, 0.5]),
     ("13.699999999999999", "0.45862666475763403", "2.5", "3.5",
      "0.040000000000000001", "0.15417820740818311", "0.027432135959508403",
      "0.012544688053486739", "0.012544688053486739", "1.0981746436205042",
      "3.8436112565153762")),
    (6.283185307179586, "optimize", dict(variant="constant", sigma0=1e+76),
     ("6.2831853071795862", "1", "1e+76", "1e+76", "6.6666666666666662e-77",
      "1.3333333333333332e-76", "6.6666600000000003e-77",
      "3.3333300000000002e-77", "3.3333300000000002e-77", "1",
      "1.0000000010000002e+76")),
    (1.0, "optimize", dict(variant="affine", sigma0=1.1e+77, c1=1e+75),
     ("1", "6.2831853071795862", "1.0900000000000001e+77", "1.11e+77",
      "3.7736848691769283e-77", "7.5473697383538566e-77",
      "2.3710737613177073e-76", "1.1855368806588537e-76",
      "1.1855368806588537e-76", "1", "1.11000000111e+77")),
    (1.0, "fraction:0.9", dict(variant="affine", sigma0=1.1e+77, c1=1e+75),
     ("1", "6.2831853071795862", "1.0900000000000001e+77", "1.11e+77",
      "6.7926327645184711e-77", "7.5473697383538566e-77",
      "8.5358655407437545e-77", "4.2679327703718773e-77",
      "4.2679327703718773e-77", "1", "1.11000000111e+77")),
    (0.5, "optimize", dict(variant="polynomial", coeffs=[5e+75, 1e+75, 2e+74]),
     ("0.5", "12.566370614359172", "4.2e+75", "6.2000000000000002e+75",
      "1.3512226467052874e-75", "2.7024452934105748e-75",
      "1.6979947581049388e-74", "8.4899737905246941e-75",
      "8.4899737905246941e-75", "1", "6.2000000062000011e+75")),
    (1.5707963267948967e-76, "optimize", dict(variant="constant", sigma0=1.0),
     ("1.5707963267948967e-76", "3.9999999999999995e+76", "1", "1",
      "3.2552083333333335e-78", "8.3333333333333337e-78",
      "0.12782244559346878", "0.06391122279673439", "0.06391122279673439", "1",
      "1.0000000010000001")),
    (1.6e-76, "fraction:0.3", dict(variant="affine", sigma0=2.0, c1=0.5),
     ("1.5999999999999999e-76", "3.9269908169872417e+76", "1.5", "2.5",
      "3.8197186342054874e-78", "1.2732395447351625e-77",
      "0.18148129999999998", "0.090740649999999992", "0.090740649999999992",
      "1", "2.5000000025000002")),
    (1.6e-76, "optimize", dict(variant="constant", sigma0=3e+76),
     ("1.5999999999999999e-76", "3.9269908169872417e+76",
      "2.9999999999999998e+76", "2.9999999999999998e+76",
      "0.077883063300355534", "0.17419838287450415", "3.3161648841740401e+75",
      "1.4030009693809661e+75", "1.4030009693809661e+75", "1.2018419092193218",
      "3.6055257312634914e+76")),
]


def _jobs(root: Path) -> list[tuple[Path, Path]]:
    """Write the table's configs; return (config, output dir) pairs."""
    jobs = []
    for i, (L, strategy, sigma, _) in enumerate(TABLE):
        config = root / f"c{i:02d}.json"
        config.write_text(json.dumps({
            "run_id": f"c{i:02d}",
            "domain": {"L": L, "K": 2, "M": 6, "N": 0},
            "sigma": {"z_domain": [-1.0, 1.0], **sigma},
            "alpha_strategy": strategy}))
        jobs.append((config, root / f"out{i:02d}"))
    return jobs


def _expected(values) -> bytes:
    return "".join(f"{name},{value}\r\n" for name, value
                   in [("name", "value"), *zip(ROWS, values)]).encode()


def test_certificate_table_is_pinned(tmp_path, capsys):
    for (config, out), (*_, values) in zip(_jobs(tmp_path), TABLE):
        argv = ["certify", "--config", str(config), "--out", str(out)]
        assert main(argv) == 0
        assert (out / "certificate.csv").read_bytes() == _expected(values), \
            config.name


# certify every (config, out) pair of argv, then print which of the
# dispatch targets named in NPY_DISABLE_CPU_FEATURES numpy still runs
_SCRIPT = """
import json, os, sys
from hypobgk.cli import main
try:
    from numpy._core._multiarray_umath import __cpu_features__ as features
except ImportError:
    features = {}
for config, out in zip(sys.argv[1::2], sys.argv[2::2]):
    assert main(["certify", "--config", config, "--out", out]) == 0, config
names = os.environ["NPY_DISABLE_CPU_FEATURES"].split()
print(json.dumps([name for name in names if features.get(name)]))
"""


def test_certificate_table_without_avx512_dispatch(tmp_path):
    jobs = _jobs(tmp_path)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISPATCH_OFF,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT,
         *[str(path) for job in jobs for path in job]],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
    for (config, out), (*_, values) in zip(jobs, TABLE):
        assert (out / "certificate.csv").read_bytes() == _expected(values), \
            config.name
