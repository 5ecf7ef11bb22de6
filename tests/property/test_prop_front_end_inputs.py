"""Property: hostile input to a front end ends in a typed error.

Grammar-shaped token sequences — the four front ends' keywords and
punctuation, malformed numbers, non-integers where an integer is due,
unknown relations and attributes — go to Serena SQL, SAL, the rule
calculus and the DDL on the paper environment.  Each call either
compiles or raises :class:`SerenaError`; nothing else may escape.
"""

from hypothesis import given, settings, strategies as st

from repro.continuous.time import VirtualClock
from repro.continuous.xdrelation import XDRelation
from repro.devices.paper_example import build_paper_example
from repro.devices.scenario import temperatures_schema
from repro.errors import SerenaError
from repro.lang import compile_rule, compile_sql, execute_ddl, parse_query
from repro.pems.table_manager import ExtendedTableManager

ENV = build_paper_example().environment
ENV.add_relation(XDRelation(temperatures_schema(), infinite=True))

KEYWORDS = (
    "SELECT FROM WHERE SET USING STREAMING AT GROUP BY HAVING AS STREAM OF "
    "NATURAL JOIN PROTOTYPE SERVICE IMPLEMENTS EXTENDED RELATION VIRTUAL "
    "BINDING PATTERNS INSERT INTO DELETE VALUES ACTIVE PASSIVE "
    "and or not true false contains project select rename assign invoke "
    "bindstream window stream aggregate join union intersection difference "
    "count avg sum min max insertion heartbeat STRING INTEGER REAL BOOLEAN BLOB"
).split()
NAMES = (
    "contacts cameras sensors ghost name address text messenger sent camera "
    "area quality delay photo sensor location temperature nope sendMessage "
    "checkPhoto takePhoto getTemperature _ x"
).split()
PUNCTUATION = "( ) [ ] , ; : := -> = != < <= > >= * -".split()
NUMBERS = ["0", "1", "2", "-1", "2.5", "35.5", "1e", "3e+", "1e5", "-.5", "99999999999999999999"]
STRINGS = ["'office'", "'Carla'", "'a''b'", "''"]
TOKENS = KEYWORDS + NAMES + PUNCTUATION + NUMBERS + STRINGS

#: Well-formed texts, one family per front end, that the mutations start from.
SEEDS = {
    "sql": [
        "SELECT name , sent FROM contacts SET text := 'Hi' WHERE name != 'Carla' USING sendMessage",
        "SELECT location , avg ( temperature ) AS t FROM sensors USING getTemperature GROUP BY location HAVING t > 1",
        "SELECT * FROM temperatures [ 1 ] NATURAL JOIN contacts AS STREAM OF insertion",
    ],
    "sal": [
        "invoke [ sendMessage , messenger , 1 ] ( assign [ text := 'x' ] ( contacts ) )",
        "project [ location ] ( select [ not sensor = 'x' or true ] ( window [ 2 ] ( temperatures ) ) )",
        "aggregate [ location ; count ( * ) as n ] ( union ( sensors , sensors ) )",
    ],
    "rule": [
        "h ( n , s ) :- contacts ( n , _ , _ , _ , _ ) , sensors ( s , l , t ) , t > 1e5 ;",
        "q ( p ) :- cameras ( c , 'office' , q , _ , p ) , q >= 5 ;",
    ],
    "ddl": [
        "PROTOTYPE p ( a STRING ) : ( b REAL ) ACTIVE ; SERVICE s IMPLEMENTS p ;",
        "EXTENDED STREAM r ( s SERVICE , temperature REAL VIRTUAL ) USING BINDING PATTERNS ( getTemperature [ s ] ( ) : ( temperature ) ) ;",
        "EXTENDED RELATION t ( a STRING , n REAL ) ; INSERT INTO t VALUES ( 'A' , 1 ) , ( 'B' , 2.5 ) ; DELETE FROM t VALUES ( 'A' , 1 ) ;",
    ],
}


def _run_ddl(text: str) -> None:
    execute_ddl(text, ExtendedTableManager(build_paper_example().environment, VirtualClock()))


FRONT_ENDS = {
    "sql": lambda text: compile_sql(text, ENV),
    "sal": lambda text: parse_query(text, ENV),
    "rule": lambda text: compile_rule(text, ENV),
    "ddl": _run_ddl,
}

tokens = st.sampled_from(TOKENS)


@st.composite
def mutated(draw, front_end: str) -> str:
    """A seed text with a few tokens replaced, inserted or deleted, or
    one of its numbers swapped for another (perhaps malformed) one."""
    words = draw(st.sampled_from(SEEDS[front_end])).split()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(words)))
        edit = draw(st.sampled_from(("replace", "insert", "delete", "number")))
        numbers = [i for i, word in enumerate(words) if word in NUMBERS]
        if edit == "number" and numbers:
            words[draw(st.sampled_from(numbers))] = draw(st.sampled_from(NUMBERS))
        elif edit == "insert" or at == len(words):
            words.insert(at, draw(tokens))
        elif edit == "replace":
            words[at] = draw(tokens)
        else:
            del words[at]
    return " ".join(words)


def texts(front_end: str):
    soup = st.lists(tokens, max_size=16).map(" ".join)
    return st.one_of(mutated(front_end), soup)


def _compiles_or_raises_serena_error(front_end: str, text: str) -> None:
    try:
        FRONT_ENDS[front_end](text)
    except SerenaError:
        pass


@given(texts("sql"))
@settings(max_examples=300, deadline=None)
def test_sql_input_ends_in_a_typed_error(text):
    _compiles_or_raises_serena_error("sql", text)


@given(texts("sal"))
@settings(max_examples=300, deadline=None)
def test_sal_input_ends_in_a_typed_error(text):
    _compiles_or_raises_serena_error("sal", text)


@given(texts("rule"))
@settings(max_examples=300, deadline=None)
def test_rule_input_ends_in_a_typed_error(text):
    _compiles_or_raises_serena_error("rule", text)


@given(texts("ddl"))
@settings(max_examples=150, deadline=None)
def test_ddl_input_ends_in_a_typed_error(text):
    _compiles_or_raises_serena_error("ddl", text)
