"""Unit tests for the in-memory table (repro.db.table)."""

from __future__ import annotations

import pytest

from repro.db.schema import SchemaError, TableSchema
from repro.db.table import Table


@pytest.fixture()
def people() -> Table:
    return Table.from_rows(
        "people",
        [
            {"name": "bob", "age": 41, "city": "seattle"},
            {"name": "eva", "age": 35, "city": "durham"},
            {"name": "carlos", "age": 29, "city": "seattle"},
        ],
        primary_key=["name"],
    )


@pytest.fixture()
def visits() -> Table:
    return Table.from_rows(
        "visits",
        [
            {"name": "bob", "hospital": "h1"},
            {"name": "bob", "hospital": "h2"},
            {"name": "eva", "hospital": "h1"},
        ],
    )


class TestConstruction:
    def test_from_rows_infers_types(self, people):
        assert people.schema.column("age").dtype == "int"
        assert people.schema.column("name").dtype == "str"

    def test_from_rows_requires_rows(self):
        with pytest.raises(SchemaError):
            Table.from_rows("empty", [])

    def test_insert_validates_schema(self, people):
        with pytest.raises(SchemaError):
            people.insert({"name": "dana", "age": "not a number", "city": "x"})

    def test_primary_key_uniqueness(self, people):
        with pytest.raises(SchemaError):
            people.insert({"name": "bob", "age": 50, "city": "x"})

    def test_insert_many_keeps_the_rows_before_a_failing_row(self, people):
        people.build_index("city")
        version = people.version
        rows = [
            {"name": "dana", "age": 50, "city": "x"},
            {"name": "eli", "age": 51, "city": "x"},
            {"name": "dana", "age": 52, "city": "y"},  # repeats a key
            {"name": "fay", "age": 53, "city": "z"},
        ]
        with pytest.raises(SchemaError, match="duplicate"):
            people.insert_many(rows)
        assert [row["name"] for row in people] == ["bob", "eva", "carlos", "dana", "eli"]
        assert people.version == version + 2
        assert people.get_by_key("eli")["age"] == 51
        assert len(people.lookup("city", "x")) == 2
        with pytest.raises(SchemaError):
            people.insert_many(
                [{"name": "gus", "age": 1, "city": "q"}, {"name": "hal", "age": "?", "city": "q"}]
            )
        assert people.get_by_key("gus")["age"] == 1
        assert len(people) == 6

    def test_len_and_iteration(self, people):
        assert len(people) == 3
        assert sorted(row["name"] for row in people) == ["bob", "carlos", "eva"]

    def test_get_by_key(self, people):
        assert people.get_by_key("eva")["age"] == 35
        with pytest.raises(KeyError):
            people.get_by_key("nobody")

    def test_get_by_key_requires_primary_key(self, visits):
        with pytest.raises(SchemaError):
            visits.get_by_key("bob")


class TestColumns:
    def test_column_values(self, people):
        assert people.column("age") == [41, 35, 29]

    def test_distinct(self, people):
        assert people.distinct("city") == ["seattle", "durham"]

    def test_to_list_round_trip(self, people):
        rows = people.to_list()
        rebuilt = Table(people.schema, rows)
        assert rebuilt.to_list() == rows


class TestOperators:
    def test_select(self, people):
        seattle = people.select(lambda row: row["city"] == "seattle")
        assert len(seattle) == 2

    def test_where(self, people):
        assert len(people.where(city="seattle", age=29)) == 1
        with pytest.raises(SchemaError):
            people.where(unknown_column=1)

    def test_project(self, people):
        projected = people.project(["city"])
        assert projected.columns == ("city",)
        assert len(projected) == 3

    def test_project_distinct(self, people):
        projected = people.project(["city"], distinct=True)
        assert len(projected) == 2
        assert people.rows_are_distinct()  # keyed
        assert projected.rows_are_distinct()
        assert not people.project(["city"]).rows_are_distinct()
        projected.insert({"city": "seattle"})
        assert not projected.rows_are_distinct()

    def test_rename(self, people):
        renamed = people.rename({"name": "person"}, name="renamed")
        assert renamed.name == "renamed"
        assert "person" in renamed.columns
        assert "name" not in renamed.columns

    def test_natural_join(self, people, visits):
        joined = people.join(visits)
        assert len(joined) == 3
        assert set(joined.columns) == {"name", "age", "city", "hospital"}
        bob_rows = [row for row in joined if row["name"] == "bob"]
        assert {row["hospital"] for row in bob_rows} == {"h1", "h2"}

    def test_join_without_shared_columns_is_cartesian(self, people):
        other = Table.from_rows("flags", [{"flag": 1}, {"flag": 2}])
        product = people.join(other)
        assert len(product) == 6

    def test_group_by(self, people):
        grouped = people.group_by(
            ["city"], {"n": ("name", len), "mean_age": ("age", lambda ages: sum(ages) / len(ages))}
        )
        by_city = {row["city"]: row for row in grouped}
        assert by_city["seattle"]["n"] == 2
        assert by_city["seattle"]["mean_age"] == 35.0

    def test_lookup_with_and_without_index(self, people):
        assert len(people.lookup("city", "seattle")) == 2
        people.build_index("city")
        assert len(people.lookup("city", "seattle")) == 2
        assert people.lookup("city", "nowhere") == []

    def test_index_updated_on_insert(self, visits):
        visits.build_index("name")
        visits.insert({"name": "carlos", "hospital": "h3"})
        assert len(visits.lookup("name", "carlos")) == 1
