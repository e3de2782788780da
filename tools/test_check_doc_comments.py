#!/usr/bin/env python3
"""Unit tests of the header doc-comment lint.

    python3 tools/test_check_doc_comments.py
"""

import tempfile
import textwrap
import unittest
from pathlib import Path

from check_doc_comments import check_header


def violations(header):
    """The lint's findings on `header`, one namespace-wrapped header."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "probe.h"
        path.write_text("namespace probe {\n\n" + textwrap.dedent(header) +
                        "\n}  // namespace probe\n")
        return check_header(path)


class NamespaceScopeFunctions(unittest.TestCase):
    def test_wrapped_undocumented_function_is_flagged(self):
        found = violations("""
            [[nodiscard]] std::vector<int> parse_list(
                const std::string& text, const std::string& flag);
            """)
        self.assertEqual(len(found), 1)
        self.assertIn("undocumented function", found[0])
        self.assertIn("parse_list", found[0])

    def test_documented_template_function_is_not_flagged(self):
        found = violations("""
            /// The cores `pick` keeps.
            template <typename Pick>
            [[nodiscard]] std::uint64_t kept(std::uint64_t cores, Pick pick) {
              return cores;
            }
            """)
        self.assertEqual(found, [])

    def test_wrapped_documented_function_is_not_flagged(self):
        found = violations("""
            /// Parses a comma list of numbers.
            [[nodiscard]] std::vector<double> parse_double_list(
                const std::string& text, const std::string& flag);
            """)
        self.assertEqual(found, [])


if __name__ == "__main__":
    unittest.main()
