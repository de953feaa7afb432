from __future__ import annotations

import json

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from prsafety import github_fetch as gf
from prsafety.corpus import load_corpus

REPO = "acme/site"
BASE = "https://api.test"


class FakeResponse:
    def __init__(self, payload, status=200, headers=None):
        self._payload = payload
        self.status_code = status
        self.headers = headers or {}

    def json(self):
        return self._payload


def _pull(number, author, created, merged_by=None, merged=None, closed=None, reopen=0):
    return {
        "id": 100 + number,
        "number": number,
        "user": {"login": author},
        "created_at": created,
        "merged_at": merged,
        "closed_at": closed,
        "merged_by": None if merged_by is None else {"login": merged_by},
        "reopen_count": reopen,
    }


def _issue_comment(cid, number, author, created, body, association="NONE"):
    return {
        "id": cid,
        "issue_url": f"{BASE}/repos/{REPO}/issues/{number}",
        "user": None if author is None else {"login": author},
        "author_association": association,
        "created_at": created,
        "body": body,
    }


def _review_comment(cid, number, author, created, body, association="NONE"):
    return {
        "id": cid,
        "pull_request_url": f"{BASE}/repos/{REPO}/pulls/{number}",
        "user": None if author is None else {"login": author},
        "author_association": association,
        "created_at": created,
        "body": body,
    }


def _commit(sha, author, date, committer=None):
    return {
        "sha": sha,
        "author": None if author is None else {"login": author},
        "committer": None if committer is None else {"login": committer},
        "commit": {"author": {"date": date}},
    }


PULLS = [
    _pull(1, "mia", "2019-01-05T10:00:00Z", merged_by="kai",
          merged="2019-01-06T10:00:00Z", closed="2019-01-06T10:00:00Z"),
    _pull(2, "mia", "2019-01-07T10:00:00Z", closed="2019-02-01T00:00:00Z"),
    _pull(3, "mia", "2019-01-09T10:00:00Z", reopen=1),
    _pull(4, "leo", "2019-02-05T10:00:00Z", merged_by="kai",
          merged="2019-02-06T10:00:00Z", closed="2019-02-06T10:00:00Z"),
    _pull(5, "leo", "2019-03-05T10:00:00Z"),
]

ISSUE_COMMENTS = [
    _issue_comment(201, 1, "leo", "2019-01-05T11:00:00Z", "looks good", "MEMBER"),
    _issue_comment(202, 1, "mia", "2019-01-05T12:00:00Z", "thanks @leo"),
    _issue_comment(203, 2, "sam", "2019-01-08T09:00:00Z", "conflict with main"),
    _issue_comment(204, 99, "sam", "2019-01-08T09:30:00Z", "orphan issue"),
    _issue_comment(205, 3, None, "2019-01-09T11:00:00Z", "deleted account"),
]

REVIEW_COMMENTS = [
    _review_comment(301, 2, "sam", "2019-01-08T10:00:00Z", "inline note"),
    _review_comment(302, 4, "ann", "2019-02-05T11:00:00Z", "nit"),
]

COMMITS = [
    _commit("c1", "mia", "2019-01-04T08:00:00Z"),
    _commit("c2", "mia", "2019-01-20T08:00:00Z"),
    _commit("c3", None, "2019-01-21T08:00:00Z", committer="mia"),
    _commit("c4", "leo", "2019-02-01T08:00:00Z"),
    _commit("c5", None, "2019-02-02T08:00:00Z"),
]

USERS = {"mia": 7, "leo": 3, "sam": 0, "ann": 1}


class FakeSession:
    def __init__(self, pulls=PULLS, issue_comments=ISSUE_COMMENTS,
                 review_comments=REVIEW_COMMENTS, commits=COMMITS, users=USERS):
        self.routes = {
            f"/repos/{REPO}/pulls": pulls,
            f"/repos/{REPO}/issues/comments": issue_comments,
            f"/repos/{REPO}/pulls/comments": review_comments,
            f"/repos/{REPO}/commits": commits,
        }
        self.users = users
        self.calls: list[tuple[str, dict, dict]] = []
        # path -> queue of FakeResponse or Exception served before the real route
        self.scripted: dict[str, list] = {}

    def get(self, url, params=None, headers=None, timeout=None):
        assert url.startswith(BASE)
        path = url[len(BASE):]
        self.calls.append((path, dict(params or {}), dict(headers or {})))
        queue = self.scripted.get(path)
        if queue:
            item = queue.pop(0)
            if isinstance(item, Exception):
                raise item
            return item
        if path == f"/repos/{REPO}":
            return FakeResponse({"stargazers_count": 321})
        if path in self.routes:
            items = self.routes[path]
            page, size = params["page"], params["per_page"]
            return FakeResponse(items[(page - 1) * size : page * size])
        if path.startswith("/users/"):
            login = path.rsplit("/", 1)[-1]
            return FakeResponse({"login": login, "followers": self.users.get(login, 0)})
        raise AssertionError(f"unexpected path {path}")

    def count(self, path):
        return sum(1 for p, _, _ in self.calls if p == path)


def _fetcher(session, sleeps=None, now=lambda: 1_000.0):
    return gf.GitHubFetcher(
        session=session,
        base_url=BASE,
        sleep=(sleeps.append if sleeps is not None else lambda s: None),
        now=now,
    )


def _job(out, **overrides):
    kwargs = dict(repo_full_name=REPO, output_dir=out)
    kwargs.update(overrides)
    return gf.FetchJob(**kwargs)


# --- happy path -------------------------------------------------------------------

def test_full_export_counts_and_roles(tmp_path):
    session = FakeSession()
    report = _fetcher(session).fetch_repository(_job(tmp_path))

    # counts re-derived from the raw payloads, not from the exporter
    expected_comments = sum(
        1 for c in ISSUE_COMMENTS + REVIEW_COMMENTS
        if c.get("user") and int(c[[k for k in ("issue_url", "pull_request_url") if k in c][0]]
                                 .rsplit("/", 1)[-1]) in {p["number"] for p in PULLS}
    )
    expected_commits = sum(1 for c in COMMITS if c.get("author") or c.get("committer"))
    assert report.pulls == len(PULLS)
    assert report.comments == expected_comments == 5
    assert report.commits == expected_commits == 4
    assert report.contributors == len(USERS)
    assert not report.resumed

    loaded = load_corpus(tmp_path)
    assert loaded.errors == []
    corpus = loaded.corpus
    assert sorted(p.pr_number for p in corpus.pulls) == [1, 2, 3, 4, 5]

    by_number = {p.pr_number: p for p in corpus.pulls}
    assert by_number[1].merged and by_number[1].author == "mia"
    assert by_number[3].reopen_count == 1
    # member association makes leo an integrator; the author is the contributor
    assert [(c.author, c.role) for c in by_number[1].comments] == [
        ("leo", "integrator"),
        ("mia", "contributor"),
    ]
    # review commenters are reviewers on that PR, wherever they comment
    assert {(c.author, c.role) for c in by_number[2].comments} == {("sam", "reviewer")}
    assert [(c.author, c.role) for c in by_number[4].comments] == [("ann", "reviewer")]

    contexts = {c.author: c for c in corpus.contexts}
    assert contexts["leo"].core_member is True
    assert contexts["mia"].core_member is False
    assert contexts["mia"].contrib_rate_author == pytest.approx(3 / 4)
    assert contexts["mia"].followers == 7
    assert corpus.repos[0].stars == 321

    payload = json.loads((tmp_path / "fetch_report.json").read_text("utf-8"))
    assert payload["pulls"] == 5
    assert payload["defaulted_context_fields"] == list(gf.DEFAULTED_CONTEXT_FIELDS)
    assert payload["defaulted_pull_fields"] == ["reopen_count"]  # not in the REST pull object


@pytest.mark.parametrize(
    "route, number, login, association, role",
    [
        ("issue_comments", 1, "kai", "NONE", "integrator"),  # kai merged #1
        ("issue_comments", 2, "kai", "NONE", "other"),  # but not #2
        ("issue_comments", 3, "mia", "OWNER", "contributor"),  # mia opened #3
        ("review_comments", 5, "eve", "MEMBER", "integrator"),
    ],
    ids=["merger-on-merged-pull", "merger-elsewhere", "owner-as-author", "member-reviewer"],
)
def test_merger_and_member_roles(tmp_path, route, number, login, association, role):
    make = _issue_comment if route == "issue_comments" else _review_comment
    staged = {"issue_comments": ISSUE_COMMENTS, "review_comments": REVIEW_COMMENTS}
    staged[route] = [*staged[route], make(400, number, login, "2019-03-10T00:00:00Z", "added", association)]
    _fetcher(FakeSession(**staged)).fetch_repository(_job(tmp_path))
    assert [
        (p.pr_number, c.author, c.role)
        for p in load_corpus(tmp_path).corpus.pulls
        for c in p.comments
        if c.body == "added"
    ] == [(number, login, role)]


_LOGIN = st.sampled_from(["ann", "bo", "cy", None])
# (pull number, login, created_at, body, association): numbers past 4 name no pull.
_COMMENT = st.tuples(
    st.integers(1, 6),
    _LOGIN,
    st.sampled_from([None, "2019-01-02T00:00:00Z", "2019-01-03T00:00:00Z"]),
    st.sampled_from(["x", "y", None]),
    st.sampled_from(["OWNER", "MEMBER", "NONE"]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    pulls=st.dictionaries(st.integers(1, 4), st.tuples(_LOGIN, _LOGIN), max_size=4),
    issue=st.lists(_COMMENT, max_size=8),
    review=st.lists(_COMMENT, max_size=8),
)
def test_assembled_roles_match_the_role_rule(pulls, issue, review):
    # pulls maps each number to its (author, merger) logins; None is a null user.
    staged = {
        "pulls": [
            {**_pull(number, author, "2019-01-01T00:00:00Z", merged_by=merger),
             "user": None if author is None else {"login": author}}
            for number, (author, merger) in pulls.items()
        ],
        "issue_comments": [_issue_comment(200 + i, *c) for i, c in enumerate(issue)],
        "review_comments": [_review_comment(300 + i, *c) for i, c in enumerate(review)],
        "commits": [],
    }
    corpus = _fetcher(FakeSession())._assemble(
        _job("."), {}, staged, lambda authors: {login: {} for login in authors}
    )
    assert {
        p.pr_number: sorted((c.author, c.body, c.role) for c in p.comments) for p in corpus.pulls
    } == oracles.fetched_comment_roles(
        staged["pulls"], staged["issue_comments"], staged["review_comments"]
    )


def test_pagination_requests_each_page_once(tmp_path):
    session = FakeSession()
    _fetcher(session).fetch_repository(_job(tmp_path, page_size=2))
    pull_pages = [params["page"] for path, params, _ in session.calls
                  if path == f"/repos/{REPO}/pulls"]
    assert pull_pages == [1, 2, 3]  # 5 items at 2 per page
    review_pages = [params["page"] for path, params, _ in session.calls
                    if path == f"/repos/{REPO}/pulls/comments"]
    assert review_pages == [1, 2]  # 2 items exactly fill a page, then an empty page
    assert load_corpus(tmp_path).errors == []


def test_empty_repository_exports_empty_corpus(tmp_path):
    session = FakeSession(pulls=[], issue_comments=[], review_comments=[], commits=[], users={})
    report = _fetcher(session).fetch_repository(_job(tmp_path))
    assert (report.pulls, report.comments, report.commits, report.contributors) == (0, 0, 0, 0)
    assert load_corpus(tmp_path).errors == []


def test_completed_job_short_circuits(tmp_path):
    first = FakeSession()
    _fetcher(first).fetch_repository(_job(tmp_path))
    second = FakeSession()
    report = _fetcher(second).fetch_repository(_job(tmp_path))
    assert second.calls == []
    assert report.requests_made == 0
    assert report.pulls == 5


# --- resumption ---------------------------------------------------------------------

def test_resume_after_failure_refetches_nothing_finished(tmp_path):
    broken = FakeSession()
    broken.scripted[f"/repos/{REPO}/issues/comments"] = [
        FakeResponse({}, status=500) for _ in range(5)
    ]
    with pytest.raises(gf.FetchError, match="failing with 500"):
        _fetcher(broken).fetch_repository(_job(tmp_path, max_retries=2))

    cursor = json.loads((tmp_path / "fetch_cursor.json").read_text("utf-8"))
    assert cursor["endpoints"]["pulls"]["done"] is True
    assert cursor["endpoints"]["issue_comments"]["done"] is False

    # simulate a crash that re-staged an already-written page before resume
    staging = tmp_path / "raw_pulls.jsonl"
    first_line = staging.read_text("utf-8").splitlines()[0]
    with open(staging, "a", encoding="utf-8") as handle:
        handle.write(first_line + "\n")

    fresh = FakeSession()
    report = _fetcher(fresh).fetch_repository(_job(tmp_path, max_retries=2))
    assert report.resumed is True
    assert fresh.count(f"/repos/{REPO}/pulls") == 0  # finished endpoint untouched
    numbers = oracles.jsonl_field_values(tmp_path / "pulls.jsonl", "pr_number")
    assert sorted(numbers) == [1, 2, 3, 4, 5]  # the duplicate line was collapsed
    assert report.pulls == 5


def test_resume_after_a_profile_failure_requests_only_what_is_left(tmp_path):
    broken = FakeSession()
    broken.scripted["/users/sam"] = [FakeResponse({}, status=500) for _ in range(3)]
    with pytest.raises(gf.FetchError, match="/users/sam kept failing with 500"):
        _fetcher(broken).fetch_repository(_job(tmp_path, max_retries=2))
    assert [broken.count(f"/users/{login}") for login in ("ann", "leo", "mia")] == [1, 1, 1]

    fresh = FakeSession()
    report = _fetcher(fresh).fetch_repository(_job(tmp_path, max_retries=2))
    assert report.resumed is True
    # profiles are requested in sorted order, so only sam's is left
    assert [path for path, _, _ in fresh.calls] == ["/users/sam"]
    contexts = load_corpus(tmp_path).corpus.contexts
    assert {c.author: c.followers for c in contexts} == USERS


def test_resume_cuts_off_a_torn_staging_append(tmp_path):
    broken = FakeSession()
    broken.scripted[f"/repos/{REPO}/issues/comments"] = [
        FakeResponse(ISSUE_COMMENTS[:2]), *(FakeResponse({}, status=500) for _ in range(3))
    ]
    with pytest.raises(gf.FetchError, match="failing with 500"):
        _fetcher(broken).fetch_repository(_job(tmp_path, page_size=2, max_retries=2))
    # a crash in the middle of a page append leaves a partial line
    with open(tmp_path / "raw_issue_comments.jsonl", "a", encoding="utf-8") as handle:
        handle.write('{"id": 201, "issue_u')

    fresh = FakeSession()
    report = _fetcher(fresh).fetch_repository(_job(tmp_path, page_size=2, max_retries=2))
    assert report.resumed is True
    issue_pages = [params["page"] for path, params, _ in fresh.calls
                   if path == f"/repos/{REPO}/issues/comments"]
    assert issue_pages == [2, 3]  # the marked first page is not requested again
    assert report.comments == 5


def test_resume_restages_a_phase_whose_staging_file_was_lost(tmp_path):
    broken = FakeSession()
    broken.scripted[f"/repos/{REPO}/issues/comments"] = [FakeResponse({}, status=500)] * 3
    with pytest.raises(gf.FetchError):
        _fetcher(broken).fetch_repository(_job(tmp_path, max_retries=2))
    (tmp_path / "raw_pulls.jsonl").unlink()

    fresh = FakeSession()
    report = _fetcher(fresh).fetch_repository(_job(tmp_path, max_retries=2))
    assert report.resumed is True
    assert fresh.count(f"/repos/{REPO}/pulls") == 1
    assert fresh.count(f"/repos/{REPO}") == 0  # the repository object is still staged
    assert report.pulls == 5


def test_cursor_from_other_phases_starts_over(tmp_path):
    old_phases = ("pulls", "issue_comments", "review_comments", "commits")
    (tmp_path / "fetch_cursor.json").write_text(json.dumps({
        "repo_full_name": REPO, "since": None, "page_size": 100, "complete": False,
        "endpoints": {name: {"next_page": 2, "done": True} for name in old_phases},
    }), encoding="utf-8")
    (tmp_path / "raw_pulls.jsonl").write_text(json.dumps(PULLS[0]) + "\n", encoding="utf-8")
    session = FakeSession()
    report = _fetcher(session).fetch_repository(_job(tmp_path))
    assert report.resumed is False
    assert session.count(f"/repos/{REPO}/pulls") == 1
    assert (report.pulls, report.comments, report.commits, report.contributors) == (5, 5, 4, 4)


def test_changed_parameters_invalidate_cursor(tmp_path):
    broken = FakeSession()
    broken.scripted[f"/repos/{REPO}/commits"] = [FakeResponse({}, status=500)] * 5
    with pytest.raises(gf.FetchError):
        _fetcher(broken).fetch_repository(_job(tmp_path, max_retries=1))
    fresh = FakeSession()
    report = _fetcher(fresh).fetch_repository(_job(tmp_path, since="2019-01-01T00:00:00Z"))
    assert report.resumed is False
    assert fresh.count(f"/repos/{REPO}/pulls") == 1  # staging was discarded, refetched
    assert report.pulls == 5


# --- failure handling ------------------------------------------------------------------

def test_rate_limit_waits_until_reset(tmp_path):
    session = FakeSession()
    session.scripted[f"/repos/{REPO}"] = [
        FakeResponse({}, status=403,
                     headers={"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": "1030"})
    ]
    sleeps = []
    report = _fetcher(session, sleeps=sleeps, now=lambda: 1_000.0).fetch_repository(_job(tmp_path))
    assert report.rate_limit_waits == 1
    assert sleeps[0] == pytest.approx(31.0)  # reset minus now, plus a safety second
    assert report.pulls == 5


def test_secondary_limit_honours_retry_after(tmp_path):
    session = FakeSession()
    session.scripted[f"/repos/{REPO}/commits"] = [
        FakeResponse({}, status=403, headers={"Retry-After": "7"})
    ]
    sleeps = []
    report = _fetcher(session, sleeps=sleeps).fetch_repository(_job(tmp_path))
    assert report.rate_limit_waits == 1
    assert 7.0 in sleeps


def test_403_without_limit_headers_is_fatal(tmp_path):
    session = FakeSession()
    session.scripted[f"/repos/{REPO}"] = [FakeResponse({}, status=403)]
    with pytest.raises(gf.FetchError, match="403"):
        _fetcher(session).fetch_repository(_job(tmp_path))


def test_missing_repository_is_fatal(tmp_path):
    session = FakeSession()
    session.scripted[f"/repos/{REPO}"] = [FakeResponse({}, status=404)]
    with pytest.raises(gf.RepoNotFoundError, match=REPO):
        _fetcher(session).fetch_repository(_job(tmp_path))


def test_timeouts_retry_then_give_up(tmp_path):
    session = FakeSession()
    session.scripted[f"/repos/{REPO}"] = [requests.Timeout("slow"), requests.Timeout("slow")]
    sleeps = []
    report = _fetcher(session, sleeps=sleeps).fetch_repository(_job(tmp_path, max_retries=3))
    assert report.retries == 2
    assert report.pulls == 5

    session = FakeSession()
    session.scripted[f"/repos/{REPO}"] = [requests.Timeout("slow")] * 4
    with pytest.raises(gf.FetchError, match="retries"):
        _fetcher(session).fetch_repository(_job(tmp_path / "again", max_retries=2))


# --- authentication ---------------------------------------------------------------------

def test_token_comes_from_named_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("CI_EXPORT_TOKEN", "hunter2")
    session = FakeSession()
    _fetcher(session).fetch_repository(_job(tmp_path, auth_token_source="CI_EXPORT_TOKEN"))
    auth = {headers.get("Authorization") for _, _, headers in session.calls}
    assert auth == {"Bearer hunter2"}
    # the secret must never land in any artifact
    for artifact in tmp_path.iterdir():
        assert "hunter2" not in artifact.read_text("utf-8"), artifact


def test_no_token_sends_no_auth_header(tmp_path, monkeypatch):
    monkeypatch.delenv("GITHUB_TOKEN", raising=False)
    session = FakeSession()
    _fetcher(session).fetch_repository(_job(tmp_path))
    assert all("Authorization" not in headers for _, _, headers in session.calls)


# --- job validation ---------------------------------------------------------------------

def test_job_validation():
    with pytest.raises(ValueError, match="owner/name"):
        gf.FetchJob(repo_full_name="nameonly", output_dir=".")
    with pytest.raises(ValueError, match="page_size"):
        gf.FetchJob(repo_full_name=REPO, output_dir=".", page_size=0)
    with pytest.raises(ValueError, match="page_size"):
        gf.FetchJob(repo_full_name=REPO, output_dir=".", page_size=101)
    with pytest.raises(ValueError, match="max_retries"):
        gf.FetchJob(repo_full_name=REPO, output_dir=".", max_retries=-1)


# --- malformed API timestamps -------------------------------------------------------------

@pytest.mark.parametrize(
    "route, index, change, named",
    [
        ("pulls", 2, {"created_at": None}, "pulls item #3 created_at: missing timestamp"),
        ("pulls", 1, {"created_at": "2019-01-07 10:00:00Z"}, "pulls item #2 created_at"),
        ("pulls", 1, {"closed_at": "2019-02-01"}, "pulls item #2 closed_at"),
        ("issue_comments", 0, {"created_at": "20190105T110000Z"}, "issue_comments item 201"),
        ("review_comments", 1, {"body": 7}, "review_comments item 302: body must be a string"),
        ("commits", 0, {"commit": {"author": {"date": 1546588800}}}, "commits item c1 date"),
        ("pulls", 2, {"reopen_count": 2.7}, "pulls item #3 reopen_count: expected an integer >= 0"),
        ("pulls", 0, {"reopen_count": "x"}, "pulls item #1 reopen_count: .* got 'x'"),
        ("pulls", 0, {"reopen_count": True}, "pulls item #1 reopen_count: .* got True"),
        ("pulls", 4, {"reopen_count": -1}, "pulls item #5 reopen_count: .* got -1"),
        ("repo", 0, {"stargazers_count": 2.7}, f"repos item {REPO} stargazers_count: .* 2.7"),
        ("repo", 0, {"stargazers_count": "many"}, f"repos item {REPO} stargazers_count"),
        ("repo", 0, ["an array"], f"GET /repos/{REPO}: expected a JSON object"),
        ("users", "mia", 2.7, "users/mia followers: expected an integer >= 0, got 2.7"),
        ("users", "sam", "12", "users/sam followers: .* got '12'"),
        ("users", "leo", True, "users/leo followers: .* got True"),
        ("users", "ann", -1, "users/ann followers: .* got -1"),
    ],
)
def test_malformed_api_field_is_a_fetch_error(tmp_path, route, index, change, named):
    payloads = {"pulls": PULLS, "issue_comments": ISSUE_COMMENTS,
                "review_comments": REVIEW_COMMENTS, "commits": COMMITS}
    if route == "repo":  # the repository metadata is one object, not a list
        session = FakeSession()
        session.scripted[f"/repos/{REPO}"] = [FakeResponse(change)]
    elif route == "users":  # index names the login, change is its followers count
        session = FakeSession(users={**USERS, index: change})
    else:
        items = [dict(item) for item in payloads[route]]
        items[index].update(change)
        session = FakeSession(**{**payloads, route: items})
    with pytest.raises(gf.FetchError, match=named):
        _fetcher(session).fetch_repository(_job(tmp_path))


def test_absent_or_null_counts_read_zero(tmp_path):
    pulls = [dict(item) for item in PULLS]
    pulls[2]["reopen_count"] = None
    del pulls[3]["reopen_count"]
    session = FakeSession(pulls=pulls)
    session.scripted[f"/repos/{REPO}"] = [FakeResponse({"stargazers_count": None})]
    _fetcher(session).fetch_repository(_job(tmp_path))
    corpus = load_corpus(tmp_path).corpus
    assert [p.reopen_count for p in corpus.pulls] == [0, 0, 0, 0, 0]
    assert corpus.repos[0].stars == 0


def test_two_staged_pulls_with_one_number_stop_the_export(tmp_path):
    # _read_staging dedupes on id, so both pulls reach assembly.
    session = FakeSession(pulls=[PULLS[0], {**PULLS[1], "id": 999, "number": 1, "user": {"login": "zed"}}])
    with pytest.raises(gf.FetchError, match="pulls items 101 and 999 share number 1"):
        _fetcher(session).fetch_repository(_job(tmp_path))
    assert not (tmp_path / "pulls.jsonl").exists()
