"""The golden corpus as a script.

    PYTHONPATH=src python tests/golden.py

runs every argv of GOLDEN in-process through xpq.cli.main and exits 1
naming the first whose exit code is not 0 or whose stdout sha256 is not
the one recorded.  It needs only the standard library and xpq, so it runs
on every Python xpq supports; tests/test_cli.py::TestGoldenCorpus runs the
same table under pytest.
"""

import contextlib
import hashlib
import io
import sys

# A fixed corpus of argv, covering every subcommand in every --format it
# accepts, with the sha256 of the stdout each one printed before the CLI
# and dynamics refactors.  Internal cleanups must leave these bytes alone.
GOLDEN_SPEC5 = (
    '{"kind":"finite_orbit","orbit":{"p":2,"q":3,"r":5,'
    '"orbit":["1/5","2/5","3/5","4/5"],'
    '"stabilizer":{"basis":[[1,1],[0,4]],"index":4}},'
    '"chi":{"t1":"0/1","t2":"1/4"}}'
)
GOLDEN_MEASURE7 = (
    '{"kind":"orbit_measure","orbit":{"p":2,"q":3,"r":7,'
    '"orbit":["1/7","2/7","3/7","4/7","5/7","6/7"],'
    '"stabilizer":{"basis":[[1,4],[0,6]],"index":6}}}'
)
GOLDEN_ELEMENT = (
    '{"terms":[{"g":{"x":{"num":"1","a":0,"b":0},"m":0,"n":0},"c":"1"},'
    '{"g":{"x":{"num":"0","a":0,"b":0},"m":1,"n":-1},"c":"-2/3"},'
    '{"g":{"x":{"num":"5","a":1,"b":2},"m":4,"n":0},"c":"7"}]}'
)
GOLDEN_POINTS = (
    '[{"kind":"orbit_char","orbit":{"p":2,"q":3,"r":5,'
    '"orbit":["1/5","2/5","3/5","4/5"],'
    '"stabilizer":{"basis":[[1,1],[0,4]],"index":4}},'
    '"chi":{"t1":"0/1","t2":"1/4"}},{"kind":"orbit_char","orbit":{"p":2,"q":3,"r":1,'
    '"orbit":["0/1"],"stabilizer":{"basis":[[1,0],[0,1]],"index":1}},'
    '"chi":{"t1":"1/2","t2":"0/1"}}]'
)
GOLDEN_SEQUENCE = (
    '{"prefix":[{"kind":"infinity"}],"tail":{"kind":"constant_orbit","orbit":{"p":2,"q":3,"r":5,'
    '"orbit":["1/5","2/5","3/5","4/5"],'
    '"stabilizer":{"basis":[[1,1],[0,4]],"index":4}},'
    '"chi_limit":{"t1":"0/1","t2":"1/2"}}}'
)
GOLDEN_GROUP_ELEMENT = '{"x":{"num":"1","a":0,"b":0},"m":1,"n":0}'
# one orbit of all 24 units mod 35, and one of the two orbits mod 95
GOLDEN_ORBIT35 = (
    '{"p":2,"q":3,"r":35,"orbit":["1/35","2/35","3/35","4/35","6/35","8/35","9/35","11/35",'
    '"12/35","13/35","16/35","17/35","18/35","19/35","22/35","23/35","24/35","26/35","27/35",'
    '"29/35","31/35","32/35","33/35","34/35"],"stabilizer":{"basis":[[2,2],[0,12]],"index":24}}'
)
GOLDEN_ORBIT95 = (
    '{"p":2,"q":3,"r":95,"orbit":["7/95","14/95","17/95","21/95","23/95","28/95","29/95",'
    '"31/95","34/95","41/95","42/95","43/95","46/95","47/95","51/95","56/95","58/95","59/95",'
    '"62/95","63/95","68/95","69/95","71/95","73/95","77/95","79/95","82/95","83/95","84/95",'
    '"86/95","87/95","89/95","91/95","92/95","93/95","94/95"],'
    '"stabilizer":{"basis":[[1,29],[0,36]],"index":36}}'
)
GOLDEN_SPEC35 = '{"kind":"finite_orbit","orbit":' + GOLDEN_ORBIT35 + ',"chi":{"t1":"1/3","t2":"1/4"}}'
GOLDEN_MEASURE35 = '{"kind":"orbit_measure","orbit":' + GOLDEN_ORBIT35 + '}'
GOLDEN_SPEC95 = '{"kind":"finite_orbit","orbit":' + GOLDEN_ORBIT95 + ',"chi":{"t1":"1/3","t2":"1/4"}}'
# every term lies in the r = 35 stabilizer lattice, so the character shows
GOLDEN_LATTICE_ELEMENT = (
    '{"terms":[{"g":{"x":{"num":"1","a":0,"b":0},"m":2,"n":2},"c":"3/5"},'
    '{"g":{"x":{"num":"-5","a":1,"b":0},"m":0,"n":12},"c":"-2"},'
    '{"g":{"x":{"num":"0","a":0,"b":0},"m":2,"n":14},"c":"1"}]}'
)
# shared-prime pairs, where the canonical form of Z[1/pq] picks minimal b
# first, then minimal a; the r = 7 orbit of (4, 6) and an element whose
# terms are canonical there
GOLDEN_ORBIT7_46 = (
    '{"p":4,"q":6,"r":7,"orbit":["1/7","2/7","3/7","4/7","5/7","6/7"],'
    '"stabilizer":{"basis":[[3,0],[0,2]],"index":6}}'
)
GOLDEN_SPEC7_46 = '{"kind":"finite_orbit","orbit":' + GOLDEN_ORBIT7_46 + ',"chi":{"t1":"1/3","t2":"1/2"}}'
GOLDEN_MEASURE7_46 = '{"kind":"orbit_measure","orbit":' + GOLDEN_ORBIT7_46 + '}'
GOLDEN_ELEMENT_46 = (
    '{"terms":[{"g":{"x":{"num":"5","a":2,"b":1},"m":3,"n":0},"c":"2/3"},'
    '{"g":{"x":{"num":"-7","a":0,"b":2},"m":0,"n":2},"c":"-1"},'
    '{"g":{"x":{"num":"6","a":2,"b":0},"m":3,"n":4},"c":"5"},'
    '{"g":{"x":{"num":"11","a":0,"b":1},"m":1,"n":0},"c":"1"}]}'
)
# composite cyclotomic levels: the r = 385 = 5 7 11 orbit of 1/385 with a
# level-12 character (level 4620 = 2^2 3 5 7 11), an element with three
# terms in its stabilizer lattice, and the r = 5 orbit with t1 = 1/30030
GOLDEN_ORBIT385 = (
    '{"p":2,"q":3,"r":385,"orbit":['
    + ",".join(f'"{a}/385"' for a in sorted({pow(2, i, 385) * pow(3, j, 385) % 385
                                             for i in range(60) for j in range(60)}))
    + '],"stabilizer":{"basis":[[2,26],[0,60]],"index":120}}'
)
GOLDEN_SPEC385 = '{"kind":"finite_orbit","orbit":' + GOLDEN_ORBIT385 + ',"chi":{"t1":"1/12","t2":"1/4"}}'
GOLDEN_ELEMENT385 = (
    '{"terms":[{"g":{"x":{"num":"1","a":0,"b":0},"m":2,"n":26},"c":"3/5"},'
    '{"g":{"x":{"num":"-5","a":1,"b":0},"m":0,"n":60},"c":"-2"},'
    '{"g":{"x":{"num":"7","a":0,"b":2},"m":4,"n":112},"c":"1"},'
    '{"g":{"x":{"num":"1","a":0,"b":0},"m":1,"n":0},"c":"4"}]}'
)
GOLDEN_SPEC5_30030 = (
    '{"kind":"finite_orbit","orbit":{"p":2,"q":3,"r":5,'
    '"orbit":["1/5","2/5","3/5","4/5"],'
    '"stabilizer":{"basis":[[1,1],[0,4]],"index":4}},'
    '"chi":{"t1":"1/30030","t2":"0"}}'
)
GOLDEN_UNIT11 = '{"terms":[{"g":{"x":{"num":"1","a":0,"b":0},"m":1,"n":1},"c":"1"}]}'
# one group element given twice with 1/6 and 1/3, which merge to 1/2, and
# another given with 1/4 and -1/4, which cancel
GOLDEN_MERGING_46 = (
    '{"terms":[{"g":{"x":{"num":"5","a":1,"b":1},"m":3,"n":2},"c":"1/6"},'
    '{"g":{"x":{"num":"-7","a":0,"b":2},"m":0,"n":2},"c":"1/4"},'
    '{"g":{"x":{"num":"5","a":1,"b":1},"m":3,"n":2},"c":"1/3"},'
    '{"g":{"x":{"num":"0","a":0,"b":0},"m":0,"n":0},"c":"2"},'
    '{"g":{"x":{"num":"-7","a":0,"b":2},"m":0,"n":2},"c":"-1/4"}]}'
)
# the orbit of 1/23, the 11 quadratic residues mod 23, and the unit at
# (1, 0, 0), whose trace over that orbit is a Gaussian period
GOLDEN_MEASURE23 = (
    '{"kind":"orbit_measure","orbit":{"p":2,"q":3,"r":23,'
    '"orbit":["1/23","2/23","3/23","4/23","6/23","8/23","9/23","12/23","13/23","16/23","18/23"],'
    '"stabilizer":{"basis":[[1,4],[0,11]],"index":11}}}'
)
GOLDEN_UNIT100 = '{"terms":[{"g":{"x":{"num":"1","a":0,"b":0},"m":0,"n":0},"c":"1"}]}'
GOLDEN = [
    (
        ["orbits", "-p", "2", "-q", "3", "--max-den", "40"],
        "40b0ea954e166b60535081d95ee0e4688c277979b324c6b9f98e6b9168112131",
    ),
    (
        ["orbits", "-p", "2", "-q", "3", "--max-den", "40", "--format", "pretty"],
        "f8517c7311d24a97eeee45c7af1129dea906b494a24bb1283a2024c987b42c5a",
    ),
    (
        ["orbits", "-p", "2", "-q", "3", "--max-den", "40", "--format", "csv"],
        "daad981de941663449888fc80e528676f2102e9774facd941466a1fbc5aa87cf",
    ),
    (
        ["orbits", "-p", "2", "-q", "4", "--max-den", "9", "--format", "json"],
        "46d6730faebf0975a94383f587190e671b6906958e3c5f632682f80b341632ca",
    ),
    (
        ["orbits", "-p", "3", "-q", "5", "--max-den", "1"],
        "39f2fa10d1fb0ba25421530b1dfae1c7bf668bdb8a23ce421bf2b471b8163aba",
    ),
    (
        ["stabilizer", "-p", "2", "-q", "3", "-r", "35"],
        "ca4c7b0e29b4897ac3a452be94269445e23ca4c7df4c250d79488c4313dbc520",
    ),
    (
        ["stabilizer", "-p", "2", "-q", "3", "-r", "1", "--format", "pretty"],
        "b5b92e3fec786d21ba4fc76ca38719ae8a658dac324964882b074c87f6128508",
    ),
    (
        ["fix", "-p", "2", "-q", "3", "-m", "2", "-n", "1"],
        "ab648eb0971acf22913ad9386582abc5989aa166c159946d36d76a9ef7b9a0ba",
    ),
    (
        ["fix", "-p", "2", "-q", "3", "-m", "1", "-n", "1", "--max-den", "5", "--format", "pretty"],
        "894813e27a68dd5088d19ebebe09bb5b69549f627e104954f591bedd0b2df9b1",
    ),
    (
        ["lift", "-p", "2", "-q", "3", "--point", "3/7", "--depth", "6"],
        "bbfc82b1736e6624ac4ab2b509002e04589ef31a66635e8db7d13a58f850fa2d",
    ),
    (
        ["lift", "-p", "2", "-q", "5", "--point", "1/9", "--format", "pretty"],
        "cfaa9cec542ccd13ca11c07d2aa43e2a095b432e9baad996834c1040ab382d2e",
    ),
    (
        ["trace-eval", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC5, "--element", GOLDEN_ELEMENT],
        "1c1e15d66a3a250e3d4e79f825fb068e2a8dfa6b1adf26e38ff9206b41c593ac",
    ),
    (
        ["trace-eval", "-p", "2", "-q", "3", "--trace", GOLDEN_MEASURE7, "--element", GOLDEN_ELEMENT, "--format", "pretty"],
        "46e4e9d6e26674ee138aebd63019f810b6ff859bd9f4e2b424bfae68de21ec5a",
    ),
    (
        ["moments", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC5, "--n-max", "8"],
        "c25705681f74c0fcddc8f30e604f794de8611a7f14ced9ddddcf4064401d8e55",
    ),
    (
        ["moments", "-p", "2", "-q", "3", "--trace", GOLDEN_MEASURE7, "--n-max", "8", "--format", "pretty"],
        "6de50b84e4bd2a90943b2d94641f3f66619b66bdb780b33846d1408eca812710",
    ),
    (
        ["moments", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC5, "--n-max", "8", "--format", "csv"],
        "acc48ecc5e7e59702fd48c88f89b3614831b499485ec3c914824f9e6e5cb50cc",
    ),
    (
        ["invariance", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC5, "--n-max", "12"],
        "de2766fe872a62744acbd509c7b074a2d12d0fa2bf57163184bfb901a7e3f22a",
    ),
    (
        ["invariance", "-p", "2", "-q", "3", "--trace", '{"kind":"canonical"}', "--format", "pretty"],
        "ac8bbfe70e834536cd0a2e8a1ca806a05c000165e335a94f9b6799c9273ab4b4",
    ),
    (
        ["ktheory", "-p", "3", "-q", "5"],
        "b83f4e03c1f537d485545fc8835aaba5a31cae3bdc05a3b2f1589aa61d979e5c",
    ),
    (
        ["ktheory", "-p", "4", "-q", "6", "--format", "pretty"],
        "3d897e23f292da32c46d8c04479b6ae8b30a30cd0a0675621275f1fe4b3f3182",
    ),
    (
        ["lemma36", "-m", "6", "-n", "20"],
        "d9231755ea7e09f388ca17713f8cad5fb22a252e5ea453275b1bbc9999f1f10e",
    ),
    (
        ["lemma36", "-m", "2", "-n", "4", "--format", "pretty"],
        "88e35b9f477944fcebbf009ddde9962337e0ca7538f61fcb503a04b3e5b74706",
    ),
    (
        ["prim-closure", "--points", GOLDEN_POINTS],
        "4a927a245c06def941e21340601f1cca4f8daa2367c9b907d1ebbca8d3739612",
    ),
    (
        ["prim-closure", "--points", GOLDEN_POINTS, "--format", "pretty"],
        "1aa1cc018bec22f65ee339544c66498060f9f2fba672e94035760656c3679761",
    ),
    (
        ["prim-limit", "--sequence", GOLDEN_SEQUENCE],
        "83f79a2350d7638ad5f1d2a3e8f2fe2786a8d9fb2d03c23c743dfd86c319d860",
    ),
    (
        ["prim-limit", "--sequence", '{"tail":{"kind":"escaping"}}', "--format", "pretty"],
        "8f17ebadd525dc0a11baaac8c619fdf2500e35c1cb47dc7fd96489b8e933fb32",
    ),
    (
        ["icc-witness", "-p", "2", "-q", "3", "--element", GOLDEN_GROUP_ELEMENT, "--count", "5"],
        "43ef92b44f8ebba984fc45f5d7053a603b094cee4fed4bfcd0e98148e1b15dd6",
    ),
    (
        ["icc-witness", "-p", "2", "-q", "3", "--element", GOLDEN_GROUP_ELEMENT, "--format", "pretty"],
        "9e4bb7c4f682ef8dbc64bc26b4ac807be0e4e70edfae5ea7536903464bc888ea",
    ),
    (
        ["mult-indep", "-p", "4", "-q", "8"],
        "aa2c87380681f4d90948e2b61ea32caec17f30bebeeff0b6195b51e596437ea8",
    ),
    (
        ["mult-indep", "-p", "2", "-q", "3", "--format", "pretty"],
        "78c48a1cc9dbfb750a8b4bc8dc4c118bb8d0d642d56c1c8ca4bfee0ff6dc7f7e",
    ),
    (
        ["check", "all", "--trials", "3", "--max-den", "10", "--seed", "5"],
        "19bd4efab975a8eb29d0619c1c0688ffb188ee50ac751f88aba824b36524e7b5",
    ),
    (
        ["check", "dynamics", "--trials", "3", "--seed", "11", "--format", "pretty"],
        "07421e2e7f58c0b52f34b3476700de447cc841b7e80c5c3a48c1bb0ed693669b",
    ),
    # the two below were recorded before orbits became integer numerators
    (
        ["orbits", "-p", "2", "-q", "4", "--max-den", "150", "--format", "csv"],
        "1d4dd0cd8a4271f587280d5ac14429dd6cd029c286857da1d98ccbb06ba5a898",
    ),
    (
        ["orbits", "-p", "5", "-q", "7", "--max-den", "200"],
        "42a81cbdace50118b79d76918e970d79c11f3238650cfb27cf2913b3b67e668a",
    ),
    # the five below were recorded before trace values were encoded from
    # their integer vectors: dens > 1, negative entries, composite levels
    (
        ["moments", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC35, "--n-max", "6"],
        "da1f6d242fada69c161b9f305e4c66572bccc3e99285c5534bcf8ad19cf17473",
    ),
    (
        ["moments", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC35, "--n-max", "6", "--format", "csv"],
        "2ba577edf0aa65ba0360318b22ef242ebfd4740dba42f4ece1c478807177d50e",
    ),
    (
        ["moments", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC95, "--n-max", "4"],
        "0c4016015a548abeb7a92796568cf5a841302adae9e9006e0bcd2fc09264dff7",
    ),
    (
        ["trace-eval", "-p", "2", "-q", "3", "--trace", GOLDEN_MEASURE35, "--element", GOLDEN_ELEMENT],
        "d8007c2671260e4c830aab7ad3a24d38f43951ce5ab29bdb1dd1ae6293258842",
    ),
    (
        ["trace-eval", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC35, "--element", GOLDEN_LATTICE_ELEMENT],
        "d11bbcfb3a8640969bcf86913a850527e3269027a601746578fe129d5c382b43",
    ),
    # the six below were recorded before Z[1/pq] arithmetic moved from
    # Fraction and factoring to integer gcd steps
    (
        ["icc-witness", "-p", "6", "-q", "10", "--element", '{"x":{"num":"7","a":1,"b":1},"m":1,"n":-1}', "--count", "6"],
        "4a4521817e982ab8aa987b160bbbadc2ba80abd39a7d8f722007df7deea85090",
    ),
    (
        ["icc-witness", "-p", "6", "-q", "10", "--element", '{"x":{"num":"0","a":0,"b":0},"m":1,"n":-1}', "--count", "5"],
        "81eefa0f1065cd853dc10f66af07147e370335796d04cb30c66190748aa7e8cb",
    ),
    (
        ["trace-eval", "-p", "4", "-q", "6", "--trace", GOLDEN_SPEC7_46, "--element", GOLDEN_ELEMENT_46],
        "890f4807b710238fb4dd1a346a65eaf38e4670211a8e7784a56952ac6c00e19b",
    ),
    (
        ["trace-eval", "-p", "4", "-q", "6", "--trace", GOLDEN_MEASURE7_46, "--element", GOLDEN_ELEMENT_46, "--format", "pretty"],
        "4b2a168d6313f274a534cccf69b2209f6184c5895d8dada9bef92b92e9cc54a3",
    ),
    (
        ["check", "groupalg", "-p", "6", "-q", "10", "--trials", "4", "--seed", "7"],
        "c5d3ced10f68fbbb8bdda559a3e786be98c6833bb2e2d00579afbf7b3e553cb3",
    ),
    (
        ["check", "exact", "-p", "4", "-q", "6", "--trials", "6", "--seed", "3", "--max-den", "12"],
        "c55177dc9c0e7c1d2638b4fa94486aaebeea52a6b35be52421cd3169ec719885",
    ),
    # the three below were recorded before orbits were built as cosets of
    # <p, q> and the JSON census was written orbit by orbit
    (
        ["orbits", "-p", "6", "-q", "10", "--max-den", "400"],
        "c03055cc434c5d2dc9c1b4a730b93b1a9111e6a797d51ca14ad22920da7ec80b",
    ),
    (
        ["orbits", "-p", "3", "-q", "4", "--max-den", "300", "--format", "pretty"],
        "666e9d0424940d95312da77596617dd204c15fb6a2d9ddc7540bf2506cc046e1",
    ),
    (
        ["orbits", "-p", "5", "-q", "7", "--max-den", "600", "--format", "csv"],
        "acba2651af130b78ee0fd4df442e747e275d7df4517b9e312befa962f63ff81e",
    ),
    # the three below were recorded before Phi_N and the reduction mod Phi_N
    # were computed from the binomials (1 - x^d)
    (
        ["trace-eval", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC385, "--element", GOLDEN_ELEMENT385],
        "ad8acffed743f083a7da4c26badc2203398c5e0826eb38d385f0864486d4a098",
    ),
    (
        ["moments", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC385, "--n-max", "8"],
        "c2f63239e96d375458900694ce4ca71bd2e5a2c25c3319470413a22cbe5accc2",
    ),
    (
        ["trace-eval", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC5_30030, "--element", GOLDEN_UNIT11],
        "7bbb95ebd824ce1286be77cdfa981c47d906664e947f0a29f25efaf2c64d7b31",
    ),
    # the three below were recorded before the orbits census was streamed
    # r by r with its count taken from phi(r) / index
    (
        ["orbits", "-p", "2", "-q", "3", "--max-den", "1500"],
        "7a215b2f9158557155411a4402c639d85f16e578de0147cc633e3f44e8f16c41",
    ),
    (
        ["orbits", "-p", "5", "-q", "7", "--max-den", "800", "--format", "pretty"],
        "3d7087f6b23a26af8a76a47a7105cc70f22e3c2827d02793b8f1dd1d21dc7c94",
    ),
    (
        ["orbits", "-p", "1000000007", "-q", "998244353", "--max-den", "200", "--format", "csv"],
        "3055b061a07f9f43acf9d63e824b4bd7296fe59dbe763b9910a05bd59ae79874",
    ),
    # recorded before Q[G] elements were stored as integer numerators over
    # one denominator
    (
        ["trace-eval", "-p", "4", "-q", "6", "--trace", GOLDEN_SPEC7_46, "--element", GOLDEN_MERGING_46],
        "195d6ded4af8c7423c086f8536efc352b98cfa733b49b1b95524e5bf85b5582c",
    ),
    # the four below were recorded while each check suite still tallied into
    # a mutable result, before the suites yielded their verdicts
    (
        ["check", "traces", "-p", "4", "-q", "6"],
        "9aee335077cdb9e85cda431a9b9dd65c28b025746bb3d829311808377781cec3",
    ),
    (
        ["check", "ktheory", "-p", "4", "-q", "6"],
        "1b4572f712f6123149dd30b53238ae0964117f358dd38094486dbabc022e8147",
    ),
    (
        ["check", "primspace", "-p", "4", "-q", "6"],
        "5954f2f910e25fabe1b818aebda68e995af71b9ee2e576abc7930a62852eccc7",
    ),
    (
        ["check", "all", "-p", "6", "-q", "10", "--trials", "200", "--seed", "1"],
        "adfd96ad818c07aa8e40e9517d25c83ccc3670f2624907d1b990002e61aebc17",
    ),
    # the two below were recorded before the (orbit, character) payload had
    # one encoder; their values are irrational, so str() writes z and z^i
    (
        ["moments", "-p", "2", "-q", "3", "--trace", GOLDEN_MEASURE23, "--n-max", "2", "--format", "csv"],
        "0c742e4e81d54927646aa812bf1c4c4daabfc3cb73891ed76cf1478b2c65cc4b",
    ),
    (
        ["trace-eval", "-p", "2", "-q", "3", "--trace", GOLDEN_MEASURE23, "--element", GOLDEN_UNIT100,
         "--format", "pretty"],
        "08a2d05fe0398d55750e76e5401f81546cfa7fce34b99a804422793ea42cbb65",
    ),
    # the two below were recorded before census orbits were labelled in the
    # unit mask: 2^k from 8 on splits into 4 orbits at (9, 25), and at
    # (2, 4) the census of 300 holds 512 orbits, 18 of them mod 127
    (
        ["orbits", "-p", "9", "-q", "25", "--max-den", "200", "--format", "csv"],
        "ec8fec5684827ebf91781fdf5d9e9da550f44bc2bb2022ed9fb580d06bf8fcfa",
    ),
    (
        ["orbits", "-p", "2", "-q", "4", "--max-den", "300"],
        "a13b1307720928f04df451f46f1d660fe2569aa9688a75158376ad1b5f38458b",
    ),
]


def stdout_digest(argv: list[str]) -> tuple[int, str]:
    """The exit code of xpq.cli.main(argv) and the sha256 of what it printed."""
    import xpq.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = xpq.cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> int:
    for i, (argv, digest) in enumerate(GOLDEN):
        code, got = stdout_digest(argv)
        if (code, got) != (0, digest):
            print(f"golden {i:02d}-{argv[0]}: exit {code}, stdout sha256 {got}, recorded {digest}: {argv}",
                  file=sys.stderr)
            return 1
    print(f"{len(GOLDEN)} argv print the stdout recorded for them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
