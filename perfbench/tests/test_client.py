"""The protocol client against a spawned `standoff-xq serve`.

Needs a built `standoff-xq`: $STANDOFF_XQ, else release/standoff-xq
under $CARGO_TARGET_DIR, `.bench_build` or `target` of the checkout.
Skipped when there is none.
"""

import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import loadgen  # noqa: E402
from client import FreshClient, KeepAliveClient  # noqa: E402

ROOT = os.path.dirname(HERE)


def find_binary():
    candidates = [os.environ.get("STANDOFF_XQ")]
    for target in (os.environ.get("CARGO_TARGET_DIR"), ".bench_build", "target"):
        if target:
            candidates.append(os.path.join(ROOT, target, "release", "standoff-xq"))
    return next((c for c in candidates if c and os.path.isfile(c)), None)


class FrameRoundTrip(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.xq = find_binary()
        if cls.xq is None:
            raise unittest.SkipTest("no built standoff-xq")
        cls.tmp = tempfile.TemporaryDirectory()
        d = cls.tmp.name
        with open(os.path.join(d, "base.xml"), "w") as f:
            f.write("<text>Alice met Bob</text>")
        with open(os.path.join(d, "tokens.xml"), "w") as f:
            f.write('<tokens><w start="0" end="4"/><w start="6" end="8"/>'
                    '<w start="10" end="12"/></tokens>')
        snap = os.path.join(d, "c.snap")
        subprocess.run([cls.xq, "index", os.path.join(d, "base.xml"), "-o", snap, "--uri", "c",
                        "--layer", f"tokens={os.path.join(d, 'tokens.xml')}"],
                       check=True, capture_output=True)
        cls.server = subprocess.Popen([cls.xq, "serve", "--listen", "127.0.0.1:0", "--store", snap],
                                      stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        m = re.match(r"listening on ([0-9.]+):(\d+)", cls.server.stdout.readline())
        cls.addr = (m.group(1), int(m.group(2)))

    @classmethod
    def tearDownClass(cls):
        FreshClient(cls.addr).request("shutdown")
        cls.server.wait(timeout=15)
        cls.server.stdout.close()
        cls.tmp.cleanup()

    def test_frame_bytes(self):
        self.assertEqual(loadgen.frame("ping"), b"4\nping")
        self.assertEqual(loadgen.frame("query\n1 + 1"), b"11\nquery\n1 + 1")

    def test_fresh_connection(self):
        reply = FreshClient(self.addr).request("ping")
        self.assertTrue(reply.ok)
        self.assertEqual(reply.body, "pong")
        self.assertGreater(reply.total, 0)

    def test_kept_alive_connection_carries_many_frames(self):
        client = KeepAliveClient(self.addr)
        try:
            for _ in range(3):
                reply = client.request('query\ncount(doc("c#tokens")//w)')
                self.assertTrue(reply.ok)
                self.assertEqual(reply.body, "3")
                self.assertEqual(reply.connect, 0)
            reply = client.request('query\ndoc("c#tokens")//w[@start = 6]')
            self.assertEqual(reply.body, '<w start="6" end="8"/>')
        finally:
            client.close()

    def test_error_frame(self):
        reply = FreshClient(self.addr).request("query\nfor $x in")
        self.assertFalse(reply.ok)
        self.assertEqual(reply.category, "parse")


if __name__ == "__main__":
    unittest.main()
