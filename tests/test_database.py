"""Unit tests for the incremental instance store."""

import pytest

from repro.core.errors import SemanticsError
from repro.parser.parser import parse_schema
from repro.semantics.database import Database, IntegrityError
from repro.semantics.interpretation import Interpretation


def university_schema():
    return parse_schema("""
        class Person endclass
        class Student isa Person and not Professor
            participates in Enrollment[enrolls] : (0, 2)
        endclass
        class Professor isa Person endclass
        class Course
            isa not Person
            attributes taught_by : (1, 1) Professor
            participates in Enrollment[enrolled_in] : (1, 3)
        endclass
        relation Enrollment(enrolled_in, enrolls)
            constraints (enrolled_in : Course); (enrolls : Student)
        endrelation
    """)


@pytest.fixture
def db():
    return Database(university_schema())


class TestMutations:
    def test_insert_and_contains(self, db):
        db.insert("alice", "Person")
        assert "alice" in db
        assert len(db) == 1

    def test_unknown_class_rejected(self, db):
        db.insert("x")
        with pytest.raises(SemanticsError):
            db.add_to_class("x", "Martian")

    def test_attribute_needs_known_objects(self, db):
        db.insert("c1")
        with pytest.raises(SemanticsError):
            db.set_attribute("taught_by", "c1", "ghost")

    def test_unknown_attribute_rejected(self, db):
        db.insert("a")
        db.insert("b")
        with pytest.raises(SemanticsError):
            db.set_attribute("nope", "a", "b")

    def test_tuple_role_checking(self, db):
        db.insert("c1")
        db.insert("s1")
        with pytest.raises(SemanticsError):
            db.add_tuple("Enrollment", enrolled_in="c1")  # missing role
        db.add_tuple("Enrollment", enrolled_in="c1", enrolls="s1")

    def test_delete_cascades(self, db):
        db.insert("p", "Person", "Professor")
        db.insert("c")
        db.set_attribute("taught_by", "c", "p")
        db.delete("p")
        assert "p" not in db
        assert not db.snapshot().attribute_ext("taught_by")


def assert_same_state(snapshot, expected):
    assert snapshot.universe == expected.universe
    for name in snapshot.mentioned_classes() | expected.mentioned_classes():
        assert snapshot.class_ext(name) == expected.class_ext(name)
    for name in (snapshot.mentioned_attributes()
                 | expected.mentioned_attributes()):
        assert snapshot.attribute_ext(name) == expected.attribute_ext(name)
    for name in (snapshot.mentioned_relations()
                 | expected.mentioned_relations()):
        assert snapshot.relation_ext(name) == expected.relation_ext(name)


class TestSnapshot:
    """A snapshot skips the containment check, because the mutators keep
    every extension inside the database; it must still equal the checked
    interpretation of the same state."""

    def test_snapshot_skips_the_containment_check(self, db, monkeypatch):
        db.insert("p", "Person", "Professor")

        def refuse(self):
            raise AssertionError("containment re-checked")

        monkeypatch.setattr(Interpretation, "_check_containment", refuse)
        assert db.snapshot().class_ext("Person") == {"p"}

    def test_snapshot_after_delete(self, db):
        db.insert("p", "Person", "Professor")
        db.insert("c", "Course")
        db.insert("s", "Person", "Student")
        db.set_attribute("taught_by", "c", "p")
        db.add_tuple("Enrollment", enrolled_in="c", enrolls="s")
        db.delete("s")
        assert_same_state(db.snapshot(), Interpretation(
            {"p", "c"},
            {"Person": {"p"}, "Professor": {"p"}, "Course": {"c"}},
            {"taught_by": {("c", "p")}}))
        db.delete("p")
        assert_same_state(db.snapshot(), Interpretation(
            {"c"}, {"Course": {"c"}}))

    def test_snapshot_after_a_rolled_back_transaction(self, db):
        db.insert("p", "Person", "Professor")
        db.insert("c", "Course")
        db.set_attribute("taught_by", "c", "p")
        with pytest.raises(IntegrityError):
            with db.transaction():
                db.insert("s", "Student")  # not a Person: isa violation
                db.add_tuple("Enrollment", enrolled_in="c", enrolls="s")
                db.delete("p")
        assert_same_state(db.snapshot(), Interpretation(
            {"p", "c"},
            {"Person": {"p"}, "Professor": {"p"}, "Course": {"c"}},
            {"taught_by": {("c", "p")}}))


class TestValidation:
    def test_empty_database_consistent(self, db):
        assert db.is_consistent()

    def test_isa_violation_detected(self, db):
        db.insert("s", "Student")  # Student without Person
        assert not db.is_consistent()
        db.add_to_class("s", "Person")
        assert db.is_consistent()

    def test_course_needs_teacher(self, db):
        db.insert("c", "Course")
        db.insert("s1", "Person", "Student")
        db.add_tuple("Enrollment", enrolled_in="c", enrolls="s1")
        assert not db.is_consistent()  # missing taught_by (1,1)
        db.insert("p", "Person", "Professor")
        db.set_attribute("taught_by", "c", "p")
        assert db.is_consistent()

    def test_participation_upper_bound(self, db):
        db.insert("p", "Person", "Professor")
        db.insert("c", "Course")
        db.set_attribute("taught_by", "c", "p")
        students = []
        for i in range(3):
            name = f"s{i}"
            db.insert(name, "Person", "Student")
            students.append(name)
            db.add_tuple("Enrollment", enrolled_in="c", enrolls=name)
        assert db.is_consistent()
        # A student may enroll at most twice; course holds at most 3.
        db.insert("s9", "Person", "Student")
        db.add_tuple("Enrollment", enrolled_in="c", enrolls="s9")
        assert not db.is_consistent()


class TestTransactions:
    def test_commit_on_success(self, db):
        with db.transaction():
            db.insert("alice", "Person", "Student")
        assert "alice" in db

    def test_rollback_on_violation(self, db):
        with pytest.raises(IntegrityError) as excinfo:
            with db.transaction():
                db.insert("bob", "Student")  # not a Person: isa violation
        assert "bob" not in db
        assert excinfo.value.violations

    def test_rollback_on_exception(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("x", "Person")
                raise RuntimeError("boom")
        assert "x" not in db

    def test_no_nesting(self, db):
        with pytest.raises(SemanticsError):
            with db.transaction():
                with db.transaction():
                    pass

    def test_multi_step_transaction(self, db):
        with db.transaction():
            db.insert("p", "Person", "Professor")
            db.insert("c", "Course")
            db.set_attribute("taught_by", "c", "p")
            db.insert("s", "Person", "Student")
            db.add_tuple("Enrollment", enrolled_in="c", enrolls="s")
        assert db.is_consistent()
        assert len(db) == 3


class TestTypeInference:
    def test_implied_classes(self, db):
        db.insert("g")
        db.add_to_class("g", "Student")
        # Every supported compound containing Student contains Person.
        assert "Person" in db.implied_classes("g")

    def test_admissible_classes(self, db):
        db.insert("s", "Person", "Student")
        admissible = db.admissible_classes("s")
        assert "Professor" not in admissible  # disjoint from Student

    def test_unsatisfiable_combination_has_no_completion(self, db):
        db.insert("weird", "Person", "Student")
        db.add_to_class("weird", "Professor")
        assert db.implied_classes("weird") == frozenset()

    def test_classes_of(self, db):
        db.insert("a", "Person")
        assert db.classes_of("a") == {"Person"}
