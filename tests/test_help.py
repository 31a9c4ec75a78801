"""`scanlab <command> --help`, pinned: the flag declaration in `scanlab.cli`
must keep every flag, its choices, its required marker and its help."""

import pytest

from scanlab.cli import main

# at 80 columns, as argparse wraps it on Python 3.11
HELP = {
    "net": """\
usage: scanlab net [-h] --mode {lattice,cloud} --d D [--side SIDE] [--m M]
                   [--seed SEED] [--rescale] --out OUT

options:
  -h, --help            show this help message and exit
  --mode {lattice,cloud}
  --d D
  --side SIDE
  --m M
  --seed SEED
  --rescale             map the lattice to cell centers in [0,1]^d (euclidean
                        mode)
  --out OUT
""",
    "enumerate": """\
usage: scanlab enumerate [-h] --net NET --family
                         {balls,thick,tubes,bands,animals} [--lam LAMBDA]
                         [--lam-lo LAMBDA_LO] [--lam-hi LAMBDA_HI]
                         [--kappa KAPPA] [--grid-eps GRID_EPS] [--r R]
                         [--alpha ALPHA] [--ncontrol N_CONTROL]
                         [--value-pitch VALUE_PITCH] [--ell ELL] [--h H]
                         [--path-mode {nondecreasing,self-avoiding}]
                         [--budget BUDGET] [--kmax KMAX] [--size-cap SIZE_CAP]
                         [--seed SEED] --out OUT

options:
  -h, --help            show this help message and exit
  --net NET
  --family {balls,thick,tubes,bands,animals}
  --lam LAMBDA
  --lam-lo LAMBDA_LO
  --lam-hi LAMBDA_HI
  --kappa KAPPA
  --grid-eps GRID_EPS
  --r R
  --alpha ALPHA
  --ncontrol N_CONTROL
  --value-pitch VALUE_PITCH
  --ell ELL
  --h H
  --path-mode {nondecreasing,self-avoiding}
  --budget BUDGET
  --kmax KMAX
  --size-cap SIZE_CAP
  --seed SEED
  --out OUT
""",
    "netbuild": """\
usage: scanlab netbuild [-h] --in INFILE --epsilon EPSILON --out OUT

options:
  -h, --help         show this help message and exit
  --in INFILE
  --epsilon EPSILON
  --out OUT
""",
    "calibrate": """\
usage: scanlab calibrate [-h] --net NET [--clusters CLUSTERS]
                         [--model {gaussian,bernoulli,poisson}]
                         [--statistic {scan,average,cylinder-scan}] --out OUT
                         --alpha ALPHA --b B [--tm TM] [--seed SEED]
                         [--threads THREADS]

options:
  -h, --help            show this help message and exit
  --net NET
  --clusters CLUSTERS
  --model {gaussian,bernoulli,poisson}
  --statistic {scan,average,cylinder-scan}
  --out OUT
  --alpha ALPHA
  --b B
  --tm TM
  --seed SEED
  --threads THREADS
""",
    "test": """\
usage: scanlab test [-h] --net NET [--clusters CLUSTERS]
                    [--model {gaussian,bernoulli,poisson}]
                    [--statistic {scan,average,cylinder-scan}] --out OUT
                    --field FIELD [--threshold THRESHOLD]
                    [--calibration CALIBRATION]

options:
  -h, --help            show this help message and exit
  --net NET
  --clusters CLUSTERS
  --model {gaussian,bernoulli,poisson}
  --statistic {scan,average,cylinder-scan}
  --out OUT
  --field FIELD
  --threshold THRESHOLD
  --calibration CALIBRATION
""",
    "grow": """\
usage: scanlab grow [-h] --net NET --kind {cylinder,cone,holder,richardson}
                    [--center CENTER] [--r0 R0] [--speed SPEED]
                    [--controls CONTROLS] [--alpha ALPHA] [--kappa KAPPA]
                    [--r R] [--xi XI] [--start START] [--end END] [--x0 X0]
                    [--p P] [--within-radius WITHIN_RADIUS] [--t0 T0] --tm TM
                    [--seed SEED] --out OUT

options:
  -h, --help            show this help message and exit
  --net NET
  --kind {cylinder,cone,holder,richardson}
  --center CENTER       comma-separated coordinates
  --r0 R0
  --speed SPEED
  --controls CONTROLS   semicolon-separated coordinate tuples
  --alpha ALPHA
  --kappa KAPPA
  --r R
  --xi XI
  --start START
  --end END
  --x0 X0
  --p P
  --within-radius WITHIN_RADIUS
  --t0 T0
  --tm TM
  --seed SEED
  --out OUT
""",
    "sweep": """\
usage: scanlab sweep [-h] --config CONFIG [--threads THREADS] --out OUT

options:
  -h, --help         show this help message and exit
  --config CONFIG
  --threads THREADS
  --out OUT
""",
    "rates": """\
usage: scanlab rates [-h] --formula FORMULA [--m M] [--k K] [--d D]
                     [--lam LAM] [--eps EPS] [--logn LOG_N] [--p P] [--r R]
                     [--ell ELL] [--h H] [--x X]

options:
  -h, --help         show this help message and exit
  --formula FORMULA
  --m M
  --k K
  --d D
  --lam LAM
  --eps EPS
  --logn LOG_N
  --p P
  --r R
  --ell ELL
  --h H
  --x X
""",
}


@pytest.mark.parametrize("command", list(HELP))
def test_help_text(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP[command]


@pytest.mark.parametrize("argv", [["--help"], [], ["bogus"]])
def test_every_subcommand_is_listed(monkeypatch, capsys, argv):
    # a call that names no subcommand builds the full parser, which lists all eight
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main(argv)
    out = capsys.readouterr()
    assert "{net,enumerate,netbuild,calibrate,test,grow,sweep,rates}" in out.out + out.err
    if argv == ["--help"]:
        assert all(f"\n    {command} " in out.out for command in HELP)
