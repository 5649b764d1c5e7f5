"""Author name disambiguation over bibliographic records.

Records are grouped into blocks by atomic name variate (first-name initial
plus last name); ambiguous names inside a block are resolved by a small
two-branch neural classifier over co-author names and title/source text.
"""
