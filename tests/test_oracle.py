"""Self-tests for the DuckDB correctness oracle: it must catch wrong
results, not just run."""
import pandas as pd
import pytest

from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def kv(spark):
    pdf = pd.DataFrame({"k": [1, 1, 2, 2, 3], "v": [1.0, 2.0, 3.0, 4.0, 5.0]})
    return spark.createDataFrame(pdf).cache()


class TestAccepts:
    def test_identical_aggregate(self, kv):
        agg = kv.groupBy("k").sum("v").withColumnRenamed("sum(v)", "total")
        assert_equivalent(agg, "SELECT k, sum(v) AS total FROM t GROUP BY k", t=kv)

    def test_projection_order_irrelevant(self, kv, spark):
        agg = kv.groupBy("k").sum("v").withColumnRenamed("sum(v)", "total")
        assert_equivalent(
            agg.select("total", "k"),
            "SELECT k, sum(v) AS total FROM t GROUP BY k",
            t=kv,
        )

    def test_pandas_inputs(self, kv):
        pdf = kv.toPandas()
        assert_equivalent(
            kv.groupBy("k").count(),
            "SELECT k, count(*) AS count FROM t GROUP BY k",
            t=pdf,
        )

    def test_pandas_result(self):
        pdf = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
        assert_equivalent(
            pdf.groupby("k", as_index=False)["v"].sum(),
            "SELECT k, sum(v) AS v FROM t GROUP BY k",
            t=pdf,
        )


class TestRejects:
    def test_wrong_values(self, kv):
        wrong = kv.groupBy("k").max("v").withColumnRenamed("max(v)", "total")
        with pytest.raises(AssertionError):
            assert_equivalent(wrong, "SELECT k, sum(v) AS total FROM t GROUP BY k", t=kv)

    def test_missing_rows(self, kv):
        partial = kv.filter("k < 3").groupBy("k").count()
        with pytest.raises(AssertionError):
            assert_equivalent(partial, "SELECT k, count(*) AS count FROM t GROUP BY k", t=kv)

    def test_wrong_pandas_result(self):
        pdf = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
        with pytest.raises(AssertionError):
            assert_equivalent(
                pdf.groupby("k", as_index=False)["v"].max(),
                "SELECT k, sum(v) AS v FROM t GROUP BY k",
                t=pdf,
            )

    def test_column_name_mismatch(self, kv):
        agg = kv.groupBy("k").sum("v")  # spark names it sum(v)
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(agg, "SELECT k, sum(v) AS total FROM t GROUP BY k", t=kv)
