#!/usr/bin/env python3
"""Self-test of the benchmark's output checker.

    python3 perfbench/test_check.py

Run from the repository root. Mines a small Quest database with the real
`seqmine` (default output, so the maximal/closed summary is printed), shows
that the checker accepts the output and agrees with the summary, then
corrupts the output three ways and shows that each is rejected: one
support off by one, one pattern dropped, one pattern added. The checker
samples every pattern here, so each corruption must be found.
"""
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

MINSUP = 0.05
NCUST = 120


def items_of(line):
    return [t for t in line.split("#SUP:")[0].split() if t != "-1"]


class CheckerSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.work = tempfile.mkdtemp(prefix="selftest-", dir=run.BUILD)
        cls.db = os.path.join(cls.work, "db.spmf")
        cls.out = os.path.join(cls.work, "out.spmf")
        cls.delta = run.delta_for(MINSUP, NCUST)
        run.must_run([run.binary("perfbench_layers"), "gen", "--shape=fig9",
                      "--ncust=%d" % NCUST, "--seed=5", "--out=" + cls.db])
        cls.summary = os.path.join(cls.work, "summary.txt")
        with open(cls.summary, "w") as f:
            f.write(run.must_run([run.binary("seqmine"), cls.db,
                                  "--minsup=%g" % MINSUP, "--out=" + cls.out]))
        with open(cls.out) as f:
            cls.lines = f.read().splitlines()
        cls.rng = random.Random(7)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def check(self, lines):
        path = os.path.join(self.work, "candidate.spmf")
        with open(path, "w") as f:
            f.write("".join(line + "\n" for line in lines))
        p = subprocess.run(
            [run.binary("perfbench_check"), "--db=" + self.db,
             "--patterns=" + path, "--delta=%d" % self.delta, "--seed=3",
             "--sample=%d" % len(lines), "--extend=%d" % len(lines)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        return p.returncode, p.stdout, p.stderr

    def test_accepts_real_output_and_recounts_summary(self):
        self.assertGreater(len(self.lines), 500)
        rc, out, err = self.check(self.lines)
        self.assertEqual(rc, 0, err)
        counts = run.json.loads(out)
        self.assertLessEqual(counts["maximal"], counts["closed"])
        self.assertLessEqual(counts["closed"], counts["patterns"])
        self.assertLess(counts["maximal"], counts["patterns"])
        run.check_summary(self.summary, counts)  # raises on disagreement

    def test_rejects_support_off_by_one(self):
        lines = list(self.lines)
        i = self.rng.randrange(len(lines))
        head, sup = lines[i].split("#SUP:")
        lines[i] = "%s#SUP: %d" % (head, int(sup) + 1)
        rc, _, err = self.check(lines)
        self.assertEqual(rc, 1)
        self.assertIn("FAIL", err)

    def test_rejects_dropped_pattern(self):
        # A pattern of three or more items, out of reach of the naive
        # 1-/2-item recount: the downward or completeness check must see it.
        long = [i for i, l in enumerate(self.lines) if len(items_of(l)) >= 3]
        self.assertTrue(long)
        lines = list(self.lines)
        del lines[self.rng.choice(long)]
        rc, _, err = self.check(lines)
        self.assertEqual(rc, 1)
        self.assertIn("FAIL", err)

    def test_rejects_added_pattern(self):
        # An unreported pattern claiming the threshold support: extend a
        # reported pattern by one item into a new last itemset.
        heads = {line.split("#SUP:")[0] for line in self.lines}
        head = self.lines[0].split("#SUP:")[0]
        item = next(i for i in range(1, 1001)
                    if "%s%d -1 " % (head, i) not in heads)
        lines = self.lines + ["%s%d -1 #SUP: %d" % (head, item, self.delta)]
        rc, _, err = self.check(lines)
        self.assertEqual(rc, 1)
        self.assertIn("FAIL", err)


if __name__ == "__main__":
    unittest.main()
