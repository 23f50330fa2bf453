# Checks that every committed artifact the docs cite exists and parses:
# each `bench/baselines/<name>.json` path in README.md, DESIGN.md and
# EXPERIMENTS.md, with shell-style `{a,b}` lists expanded, must be a file
# holding valid JSON. A doc that cites a baseline nobody committed fails
# here instead of sending readers to a missing file.
#
# Usage: cmake -DREPO=<repo root> -P tests/cited_artifacts_check.cmake

if(NOT DEFINED REPO)
  message(FATAL_ERROR "pass -DREPO=<repo root>")
endif()

# Expands the first {a,b,...} group of `path` and recurses, appending every
# fully expanded path to the list named by `out`.
function(expand_braces path out)
  string(FIND "${path}" "{" open)
  if(open EQUAL -1)
    set(${out} ${${out}} "${path}" PARENT_SCOPE)
    return()
  endif()
  string(FIND "${path}" "}" close)
  math(EXPR alt_len "${close} - ${open} - 1")
  math(EXPR alt_start "${open} + 1")
  math(EXPR tail_start "${close} + 1")
  string(SUBSTRING "${path}" 0 ${open} head)
  string(SUBSTRING "${path}" ${alt_start} ${alt_len} alts)
  string(SUBSTRING "${path}" ${tail_start} -1 tail)
  string(REPLACE "," ";" alts "${alts}")
  set(acc ${${out}})
  foreach(alt IN LISTS alts)
    expand_braces("${head}${alt}${tail}" acc)
  endforeach()
  set(${out} ${acc} PARENT_SCOPE)
endfunction()

set(cited "")
foreach(doc README.md DESIGN.md EXPERIMENTS.md)
  file(READ "${REPO}/${doc}" text)
  string(REGEX MATCHALL "bench/baselines/[A-Za-z0-9_.,{}-]+\\.json" refs
         "${text}")
  foreach(ref IN LISTS refs)
    expand_braces("${ref}" cited)
  endforeach()
endforeach()
list(REMOVE_DUPLICATES cited)

set(bad "")
foreach(path IN LISTS cited)
  if(NOT EXISTS "${REPO}/${path}")
    list(APPEND bad "${path}: missing")
    continue()
  endif()
  file(READ "${REPO}/${path}" json)
  string(JSON type ERROR_VARIABLE err TYPE "${json}")
  if(NOT err STREQUAL "NOTFOUND")
    list(APPEND bad "${path}: does not parse (${err})")
  endif()
endforeach()

list(LENGTH cited n_cited)
if(n_cited EQUAL 0)
  message(FATAL_ERROR "no bench/baselines artifact cited in the docs; "
                      "the pattern no longer matches how they cite paths")
endif()
if(bad)
  string(REPLACE ";" "\n  " bad "${bad}")
  message(FATAL_ERROR "cited artifacts not usable:\n  ${bad}")
endif()
message(STATUS "${n_cited} cited artifacts exist and parse")
