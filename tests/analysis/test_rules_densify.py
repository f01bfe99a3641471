"""Unit tests for the no-matrix-densify rule."""

from repro.analysis.rules import ALL_RULES
from repro.analysis.rules.densify import NoMatrixDensifyRule

from tests.analysis.conftest import check_snippet


class TestNoMatrixDensify:
    def test_flags_todense_calls(self):
        findings = check_snippet(
            NoMatrixDensifyRule(),
            """
            import numpy as np

            def f(matrix):
                dense = np.asarray(matrix.todense())
                return dense
            """,
        )
        assert len(findings) == 1
        assert "toarray" in findings[0].message

    def test_flags_uncalled_attribute_too(self):
        findings = check_snippet(
            NoMatrixDensifyRule(),
            """
            def f(matrix):
                densify = matrix.todense
                return densify()
            """,
        )
        assert len(findings) == 1

    def test_toarray_is_fine(self):
        findings = check_snippet(
            NoMatrixDensifyRule(),
            """
            def f(matrix):
                return matrix.toarray()
            """,
        )
        assert findings == []

    def test_flags_attribute_qualified_call(self):
        findings = check_snippet(
            NoMatrixDensifyRule(),
            """
            import scipy.sparse

            def f(rows):
                return scipy.sparse.csr_matrix(rows).todense()
            """,
        )
        assert len(findings) == 1

    def test_import_and_reference_alone_are_fine(self):
        # Only the `.todense` attribute densifies; a bare name that
        # happens to be called todense is not a sparse method.
        findings = check_snippet(
            NoMatrixDensifyRule(),
            """
            from helpers import todense

            ORACLE_HELPERS = {"to_dense": todense}
            """,
        )
        assert findings == []

    def test_registered(self):
        assert NoMatrixDensifyRule in ALL_RULES
        assert NoMatrixDensifyRule.id == "no-matrix-densify"
